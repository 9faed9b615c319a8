"""§VIII-A "Varying Data Size" — answers are independent of M.

Paper setup: N(100, 20²) at M = 10⁸ … 10¹² ("100M … 1TB" files);
answers 99.9927–100.0119, all within e=0.1, because the Eq. (1) sample
size depends only on σ, e, β. We sweep scaled sizes (default
10⁵/10⁶/10⁷ — the same m is drawn at every size, which is the entire
point being demonstrated).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core import ISLAConfig, isla_avg
from repro.experiments.runner import cached, round_robin_sizes
from repro.synth_data import blocked_normal


def run_datasize(
    spark: SparkSession,
    *,
    sizes: tuple[int, ...] = (100_000, 1_000_000, 10_000_000),
    b: int = 10,
    mu: float = 100.0,
    sigma: float = 20.0,
    e: float = 0.1,
    seed0: int = 1100,
) -> dict:
    """ISLA answers across data sizes M."""
    cfg = ISLAConfig(e=e)
    out = {"mu": mu, "e": e, "M": list(sizes), "ISLA": [], "m_required": []}
    for i, n in enumerate(sizes):
        seed = seed0 + 10 * i
        data = blocked_normal(spark, n=n, b=b, mu=mu, sigma=sigma, seed=seed)
        with cached(data) as df:
            res = isla_avg(
                df, "v", "block", cfg,
                block_sizes=round_robin_sizes(n, b), seed=seed,
            )
            out["ISLA"].append(res.answer)
            out["m_required"].append(res.pre.m)
    return out
