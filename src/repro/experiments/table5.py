"""Table V — ISLA at r/3 vs uniform & stratified sampling at r (§VIII-B).

Paper setup: 5 datasets N(100, 20²), e=0.5 (m = 6147); US and STS use
the full Eq. (1) rate, ISLA only a third of it (and of those, only the
S/L samples participate). Paper result: all three within the precision;
ISLA comparable or better despite 1/3 the samples.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.baselines import stratified_avg, uniform_avg
from repro.core import ISLAConfig, isla_avg
from repro.experiments.runner import cached, round_robin_sizes
from repro.synth_data import blocked_normal


def run_table5(
    spark: SparkSession,
    *,
    n: int = 1_000_000,
    b: int = 10,
    n_datasets: int = 5,
    mu: float = 100.0,
    sigma: float = 20.0,
    e: float = 0.5,
    seed0: int = 300,
) -> dict:
    """Run the Table V grid; ISLA at rate_factor=1/3."""
    cfg = ISLAConfig(e=e)
    sizes = round_robin_sizes(n, b)
    out = {"mu": mu, "e": e, "datasets": list(range(1, n_datasets + 1)),
           "ISLA": [], "US": [], "STS": [], "isla_samples": [], "us_samples": []}
    for i in range(n_datasets):
        seed = seed0 + 10 * i
        data = blocked_normal(spark, n=n, b=b, mu=mu, sigma=sigma, seed=seed)
        with cached(data) as df:
            res = isla_avg(
                df, "v", "block", cfg,
                rate_factor=1.0 / 3.0, block_sizes=sizes, seed=seed,
            )
            pre = res.pre
            out["ISLA"].append(res.answer)
            out["US"].append(uniform_avg(df, "v", pre.rate, seed=seed + 5))
            out["STS"].append(
                stratified_avg(df, "v", "block", pre.rate, sizes, seed=seed + 6)
            )
            out["isla_samples"].append(res.samples_participating)
            out["us_samples"].append(pre.m)
    return out
