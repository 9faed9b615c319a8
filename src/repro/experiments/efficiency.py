"""§VIII-F — efficiency on TPC-H LINEITEM.

Paper setup: TPC-H 100 GB (600M rows), AVG over a LINEITEM column,
each algorithm run 20×; total run times (ms): ISLA 31 979, MV 61 718,
MVB 70 584, US 25 989, STS 84 294 — shape: US < ISLA < MV < MVB < STS.

Here: `synth_data.lineitem` at SF (default 0.1 → 600K rows, the
benchmark scale), AVG(l_extendedprice), with the desired precision
scaled to the column's magnitude so the sampling rate is a comparable
small fraction. Timings are wall-clock over `repeats` runs per method
on a cached DataFrame; block sizes and pre-estimation are computed once
outside the timed region for all methods alike (the paper's metadata
assumption).
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.baselines import mv_avg, mvb_avg, stratified_avg, uniform_avg
from repro.core import DataBoundaries, ISLAConfig, isla_avg
from repro.core.pre_estimation import compute_block_sizes, pre_estimate
from repro.experiments.runner import cached
from repro.synth_data import lineitem


def run_efficiency(
    spark: SparkSession,
    *,
    sf: float = 0.1,
    b: int = 10,
    e: float = 500.0,
    repeats: int = 3,
    seed: int = 1300,
) -> dict:
    """Time ISLA/MV/MVB/US/STS on AVG(l_extendedprice)."""
    cfg = ISLAConfig(e=e)
    data = (
        lineitem(spark, sf=sf, seed=seed)
        .withColumn("block", (F.col("l_orderkey") % b).cast("int"))
        .select("block", F.col("l_extendedprice").alias("v"))
    )
    with cached(data) as df:
        df.count()  # materialise the cache before timing
        sizes = compute_block_sizes(df, "block")
        pre = pre_estimate(df, "v", "block", cfg, block_sizes=sizes, seed=seed)
        bounds = DataBoundaries(pre.sketch0, pre.sigma, cfg.p1, cfg.p2)

        methods = {
            "ISLA": lambda s: isla_avg(
                df, "v", "block", cfg, pre=pre, seed=s
            ).answer,
            "MV": lambda s: mv_avg(df, "v", pre.rate, seed=s),
            "MVB": lambda s: mvb_avg(df, "v", pre.rate, bounds, seed=s),
            "US": lambda s: uniform_avg(df, "v", pre.rate, seed=s),
            "STS": lambda s: stratified_avg(
                df, "v", "block", pre.rate, sizes, seed=s
            ),
        }
        out = {"sf": sf, "rate": pre.rate, "repeats": repeats,
               "time_ms": {}, "answers": {}}
        for name, fn in methods.items():
            t0 = time.perf_counter()
            ans = 0.0
            for r in range(repeats):
                ans = fn(seed + 7 * r)
            out["time_ms"][name] = (time.perf_counter() - t0) * 1000.0
            out["answers"][name] = ans
        row = df.agg(F.avg("v").alias("avg")).first()
        out["accurate"] = float(row["avg"])
        return out
