"""§VIII-G — "real" data (shape-matched synthetic substitutes).

Paper setup: Census-KDD salary (n=299 285, accurate 1740.38) and NYC
TLC trip_distance×1000 (n=10 906 858, accurate 4648.2, "too big and too
small values highly clustered"). MV/MVB/US/STS get m=20 000 samples,
ISLA only 10 000. Paper result: ISLA and US/STS close on salary; on the
clustered TLC data ISLA (4515.73) far closer than MV (7426), MVB
(3298), US (2909), STS (4289).

Substitutes (DESIGN.md §3): `salary_like` (zero-inflated lognormal) and
`tlc_like` (clustered bimodal mixture). The accurate value is a full
scan, as the paper does for real data; the target sample size m is
imposed by back-solving e = z·σ/√m so that every method draws ~m
samples and ISLA draws ~m/2.
"""
from __future__ import annotations

import math

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.baselines import mv_avg, mvb_avg, stratified_avg, uniform_avg
from repro.core import DataBoundaries, ISLAConfig, isla_avg
from repro.core.config import z_score
from repro.experiments.runner import cached, round_robin_sizes
from repro.synth_data import salary_like, tlc_like


def _run_one(
    df: DataFrame, sizes: dict, m_target: int, beta: float, seed: int
) -> dict:
    stats = df.agg(
        F.avg("v").alias("avg"), F.stddev_samp("v").alias("std")
    ).first()
    accurate, sigma = float(stats["avg"]), float(stats["std"])
    e = z_score(beta) * sigma / math.sqrt(m_target)
    cfg = ISLAConfig(e=e, beta=beta)
    res = isla_avg(
        df, "v", "block", cfg, rate_factor=0.5, block_sizes=sizes, seed=seed
    )
    pre = res.pre
    bounds = DataBoundaries(pre.sketch0, pre.sigma, cfg.p1, cfg.p2)
    return {
        "accurate": accurate,
        "e": e,
        "m": pre.m,
        "ISLA": res.answer,
        "MV": mv_avg(df, "v", pre.rate, seed=seed + 5),
        "MVB": mvb_avg(df, "v", pre.rate, bounds, seed=seed + 6),
        "US": uniform_avg(df, "v", pre.rate, seed=seed + 7),
        "STS": stratified_avg(df, "v", "block", pre.rate, sizes, seed=seed + 8),
    }


def run_realdata(
    spark: SparkSession,
    *,
    n_salary: int = 299_285,
    n_tlc: int = 1_000_000,
    b: int = 10,
    m_target: int = 20_000,
    beta: float = 0.95,
    seed: int = 1500,
) -> dict:
    """Run both simulated real-data comparisons."""
    out = {}
    for name, gen, n in (
        ("salary", salary_like, n_salary),
        ("tlc", tlc_like, n_tlc),
    ):
        with cached(gen(spark, n=n, b=b, seed=seed)) as df:
            out[name] = _run_one(
                df, round_robin_sizes(n, b), m_target, beta, seed
            )
    return out
