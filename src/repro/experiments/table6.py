"""Table VI — exponential distributions (§VIII-E).

Paper setup: Exp(γ) for γ ∈ {0.05, 0.1, 0.15, 0.2} (accurate AVG 1/γ),
default parameters otherwise. Paper result: MV ≈ 2/γ (2× off), MVB
~9% high, ISLA slightly low but closest (e.g. 19.87 vs accurate 20).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.baselines import mv_avg, mvb_avg
from repro.core import DataBoundaries, ISLAConfig, isla_avg
from repro.experiments.runner import cached, round_robin_sizes
from repro.synth_data import blocked_exponential


def run_table6(
    spark: SparkSession,
    *,
    n: int = 1_000_000,
    b: int = 10,
    gammas: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2),
    e: float = 0.1,
    seed0: int = 500,
) -> dict:
    """Run the Table VI sweep over γ."""
    cfg = ISLAConfig(e=e)
    sizes = round_robin_sizes(n, b)
    out = {"gammas": list(gammas), "Accurate": [1.0 / g for g in gammas],
           "ISLA": [], "MV": [], "MVB": []}
    for i, gamma in enumerate(gammas):
        seed = seed0 + 10 * i
        data = blocked_exponential(spark, n=n, b=b, gamma=gamma, seed=seed)
        with cached(data) as df:
            res = isla_avg(df, "v", "block", cfg, block_sizes=sizes, seed=seed)
            pre = res.pre
            bounds = DataBoundaries(pre.sketch0, pre.sigma, cfg.p1, cfg.p2)
            out["ISLA"].append(res.answer)
            out["MV"].append(mv_avg(df, "v", pre.rate, seed=seed + 5))
            out["MVB"].append(mvb_avg(df, "v", pre.rate, bounds, seed=seed + 6))
    return out
