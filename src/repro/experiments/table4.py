"""Table IV — per-block modulation abilities (§VIII-C).

Paper setup: dataset 1 of Table III; record sketch0 and the partial
(per-block) answers of ISLA, MV, MVB. Paper result: sketch0 = 99.676;
ISLA partials ≈ 100.00 (properly modulated), MV ≈ 104, MVB ≈ 100.5.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.baselines.measure_biased import mv_block_avgs, mvb_block_avgs
from repro.core import DataBoundaries, ISLAConfig, isla_avg
from repro.experiments.runner import cached, round_robin_sizes
from repro.synth_data import blocked_normal


def run_table4(
    spark: SparkSession,
    *,
    n: int = 1_000_000,
    b: int = 10,
    mu: float = 100.0,
    sigma: float = 20.0,
    e: float = 0.1,
    seed: int = 100,
) -> dict:
    """Per-block partial answers for dataset 1 (same seed as Table III)."""
    cfg = ISLAConfig(e=e)
    sizes = round_robin_sizes(n, b)
    data = blocked_normal(spark, n=n, b=b, mu=mu, sigma=sigma, seed=seed)
    with cached(data) as df:
        res = isla_avg(df, "v", "block", cfg, block_sizes=sizes, seed=seed)
        pre = res.pre
        bounds = DataBoundaries(pre.sketch0, pre.sigma, cfg.p1, cfg.p2)
        mv = mv_block_avgs(df, "v", "block", pre.rate, seed=seed + 5)
        mvb = mvb_block_avgs(df, "v", "block", pre.rate, bounds, seed=seed + 6)
        blocks = sorted(sizes)
        return {
            "mu": mu,
            "sketch0": pre.sketch0,
            "blocks": blocks,
            "ISLA": [res.partials[blk] for blk in blocks],
            "MV": [mv[blk] for blk in blocks],
            "MVB": [mvb[blk] for blk in blocks],
            "ISLA_final": res.answer,
            "cases": [res.blocks[blk].case for blk in blocks],
        }
