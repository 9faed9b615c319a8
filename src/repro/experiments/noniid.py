"""§VIII-D — AVG aggregation on non-i.i.d. blocks.

Paper setup: 5 blocks ~ N(100,20²), N(50,10²), N(80,30²), N(150,60²),
N(120,40²), 10⁸ points each (scaled here), e=0.5; the §VII-C extension
(per-block boundaries + blev sampling rates) is on. Paper result: 5
runs, all answers within 0.5 of the accurate 100 (99.85–100.32).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core import ISLAConfig, isla_avg
from repro.experiments.runner import cached
from repro.synth_data import blocked_noniid_normal


def run_noniid(
    spark: SparkSession,
    *,
    n_per_block: int = 200_000,
    n_runs: int = 5,
    e: float = 0.5,
    seed0: int = 900,
) -> dict:
    """Run the non-iid experiment n_runs times with fresh data/seeds."""
    cfg = ISLAConfig(e=e)
    params = [(100, 20), (50, 10), (80, 30), (150, 60), (120, 40)]
    accurate = sum(mu for mu, _ in params) / len(params)
    sizes = {i: n_per_block for i in range(len(params))}
    out = {"accurate": accurate, "e": e, "ISLA": []}
    for i in range(n_runs):
        seed = seed0 + 10 * i
        data = blocked_noniid_normal(
            spark, n_per_block=n_per_block, params=params, seed=seed
        )
        with cached(data) as df:
            res = isla_avg(
                df, "v", "block", cfg, non_iid=True, block_sizes=sizes, seed=seed
            )
            out["ISLA"].append(res.answer)
    return out
