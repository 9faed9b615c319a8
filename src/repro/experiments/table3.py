"""Table III — accuracy of ISLA vs MV vs MVB on N(100, 20²) (§VIII-C).

Paper setup: 10 synthetic datasets, μ=100, σ=20, b=10 blocks, desired
precision e=0.1, β=0.95 (sample size m = 153 664, independent of M).
Paper result: ISLA avg 100.0296 (within e), MV avg 104.0036 (the
(μ²+σ²)/μ bias), MVB avg 100.515.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.baselines import mv_avg, mvb_avg
from repro.core import DataBoundaries, ISLAConfig, isla_avg
from repro.experiments.runner import cached, round_robin_sizes
from repro.synth_data import blocked_normal


def run_table3(
    spark: SparkSession,
    *,
    n: int = 1_000_000,
    b: int = 10,
    n_datasets: int = 10,
    mu: float = 100.0,
    sigma: float = 20.0,
    e: float = 0.1,
    seed0: int = 100,
) -> dict:
    """Run the Table III grid; returns per-dataset answers and averages."""
    cfg = ISLAConfig(e=e)
    sizes = round_robin_sizes(n, b)
    out = {"mu": mu, "e": e, "datasets": list(range(1, n_datasets + 1)),
           "ISLA": [], "MV": [], "MVB": []}
    for i in range(n_datasets):
        seed = seed0 + 10 * i
        data = blocked_normal(spark, n=n, b=b, mu=mu, sigma=sigma, seed=seed)
        with cached(data) as df:
            res = isla_avg(df, "v", "block", cfg, block_sizes=sizes, seed=seed)
            pre = res.pre
            bounds = DataBoundaries(pre.sketch0, pre.sigma, cfg.p1, cfg.p2)
            out["ISLA"].append(res.answer)
            out["MV"].append(mv_avg(df, "v", pre.rate, seed=seed + 5))
            out["MVB"].append(
                mvb_avg(df, "v", pre.rate, bounds, seed=seed + 6)
            )
    for k in ("ISLA", "MV", "MVB"):
        out[f"{k}_avg"] = sum(out[k]) / len(out[k])
    return out
