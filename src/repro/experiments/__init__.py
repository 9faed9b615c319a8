"""Experiment runners for the paper's evaluation tables (DESIGN.md §5).

Each ``run_*`` function takes a SparkSession plus scale knobs and
returns a plain dict of paper-table-shaped rows; the ``_md_*`` function
beside it renders that dict as the paper's table. Every comparison runs
ISLA and the paper's baselines on one cached frame, the baselines at
ISLA's Eq. (1) rate (:func:`grid`, :func:`baselines`).

:func:`run` executes one entry of ``EXPERIMENTS``, prints its table and
writes its result JSON; ``python -m repro.experiments`` and
``benchmarks/bench_experiments.py`` both go through it.
"""
from __future__ import annotations

import json
import math
import pathlib
import time
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.baselines import mv_avg, mvb_avg, stratified_avg, uniform_avg
from repro.baselines.measure_biased import mv_block_avgs, mvb_block_avgs
from repro.core import DataBoundaries, ISLAConfig, ISLAResult, isla_avg, z_score
from repro.core.pre_estimation import PreEstimate, pre_estimate
from repro.synth_data import (
    blocked_exponential,
    blocked_noniid_normal,
    blocked_normal,
    blocked_uniform,
    lineitem,
    round_robin_sizes,
    salary_like,
    tlc_like,
)

OUT = pathlib.Path(__file__).resolve().parents[3] / "experiments_output"
SMALL_N = 120_000


@contextmanager
def cached(df: DataFrame) -> Iterator[DataFrame]:
    """Cache ``df`` for the body of a ``with`` block, then unpersist it."""
    df = df.cache()
    try:
        yield df
    finally:
        df.unpersist()


def fmt_table(headers: list[str], rows: list[list]) -> str:
    """Render a result grid as GitHub-flavoured markdown."""
    def cell(x) -> str:
        if isinstance(x, float):
            return f"{x:.4f}"
        return str(x)

    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for r in rows:
        out.append("| " + " | ".join(cell(x) for x in r) + " |")
    return "\n".join(out)


def baselines(
    df: DataFrame, pre: PreEstimate, cfg: ISLAConfig, sizes: Mapping[int, int]
) -> dict[str, Callable[[int], float]]:
    """The paper's comparators on ``df.v``, each as seed → answer.

    All four sample at ISLA's Eq. (1) rate; MVB uses ISLA's global
    boundaries (sketch0, σ̂), STS weights by ``sizes`` (§VIII-B/C).
    """
    bounds = DataBoundaries(pre.sketch0, pre.sigma, cfg.p1, cfg.p2)
    return {
        "MV": lambda s: mv_avg(df, "v", pre.rate, seed=s),
        "MVB": lambda s: mvb_avg(df, "v", pre.rate, bounds, seed=s),
        "US": lambda s: uniform_avg(df, "v", pre.rate, seed=s),
        "STS": lambda s: stratified_avg(df, "v", "block", pre.rate, sizes, seed=s),
    }


def grid(
    cfg: ISLAConfig,
    datasets: Iterable[tuple[int, Mapping[int, int], DataFrame]],
    offsets: Mapping[str, int],
    **isla_kw,
) -> tuple[dict[str, list[float]], list[ISLAResult]]:
    """ISLA and the baselines named in ``offsets`` over ``datasets``.

    For each ``(seed, sizes, frame)`` the frame is cached, ISLA runs at
    ``seed`` with ``sizes`` as block metadata, then each baseline runs at
    ``seed + offsets[name]``, in the order ``offsets`` lists them.
    Returns the answers by method (ISLA first) and ISLA's results.
    """
    answers = {"ISLA": [], **{name: [] for name in offsets}}
    results = []
    for seed, sizes, data in datasets:
        with cached(data) as df:
            res = isla_avg(
                df, "v", "block", cfg, block_sizes=sizes, seed=seed, **isla_kw
            )
            results.append(res)
            answers["ISLA"].append(res.answer)
            methods = baselines(df, res.pre, cfg, sizes)
            for name, k in offsets.items():
                answers[name].append(methods[name](seed + k))
    return answers, results


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
    """Table III — accuracy of ISLA vs MV vs MVB on N(100, 20²) (§VIII-C).

    Paper setup: 10 synthetic datasets, μ=100, σ=20, b=10 blocks, desired
    precision e=0.1, β=0.95 (sample size m = 153 664, independent of M).
    Paper result: ISLA avg 100.0296 (within e), MV avg 104.0036 (the
    (μ²+σ²)/μ bias), MVB avg 100.515.
    """
    sizes = round_robin_sizes(n, b)
    answers, _ = grid(
        ISLAConfig(e=e),
        (
            (s, sizes, blocked_normal(spark, n=n, b=b, mu=mu, sigma=sigma, seed=s))
            for s in range(seed0, seed0 + 10 * n_datasets, 10)
        ),
        {"MV": 5, "MVB": 6},
    )
    out = {"mu": mu, "e": e, "datasets": list(range(1, n_datasets + 1)), **answers}
    for k in ("ISLA", "MV", "MVB"):
        out[f"{k}_avg"] = sum(out[k]) / len(out[k])
    return out


def _md_table3(res: dict) -> str:
    rows = [[m, *res[m], res[f"{m}_avg"]] for m in ("ISLA", "MV", "MVB")]
    return fmt_table(["Method", *map(str, res["datasets"]), "Average"], rows)


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
    """Table IV — per-block modulation abilities (§VIII-C).

    Paper setup: dataset 1 of Table III (same seed); record sketch0 and
    the partial (per-block) answers of ISLA, MV, MVB. Paper result:
    sketch0 = 99.676; ISLA partials ≈ 100.00 (properly modulated),
    MV ≈ 104, MVB ≈ 100.5.
    """
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


def _md_table4(res: dict) -> str:
    rows = [[m, *res[m], sum(res[m]) / len(res[m])] for m in ("ISLA", "MV", "MVB")]
    md = fmt_table(["Partial", *(str(b + 1) for b in res["blocks"]), "Average"], rows)
    return md + (
        f"\n\nsketch0 = {res['sketch0']:.4f}, ISLA final = {res['ISLA_final']:.4f}"
    )


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
    """Table V — ISLA at r/3 vs uniform & stratified sampling at r (§VIII-B).

    Paper setup: 5 datasets N(100, 20²), e=0.5 (m = 6147); US and STS use
    the full Eq. (1) rate, ISLA only a third of it (and of those, only the
    S/L samples participate). Paper result: all three within the
    precision; ISLA comparable or better despite 1/3 the samples.
    """
    sizes = round_robin_sizes(n, b)
    answers, results = grid(
        ISLAConfig(e=e),
        (
            (s, sizes, blocked_normal(spark, n=n, b=b, mu=mu, sigma=sigma, seed=s))
            for s in range(seed0, seed0 + 10 * n_datasets, 10)
        ),
        {"US": 5, "STS": 6},
        rate_factor=1.0 / 3.0,
    )
    return {
        "mu": mu,
        "e": e,
        "datasets": list(range(1, n_datasets + 1)),
        **answers,
        "isla_samples": [r.samples_participating for r in results],
        "us_samples": [r.pre.m for r in results],
    }


def _md_table5(res: dict) -> str:
    rows = [[m, *res[m]] for m in ("ISLA", "US", "STS")]
    md = fmt_table(["Data set", *map(str, res["datasets"])], rows)
    return md + (
        f"\n\nISLA participating samples: {res['isla_samples']}"
        f" — US/STS sample size m: {res['us_samples']}"
    )


def run_table6(
    spark: SparkSession,
    *,
    n: int = 1_000_000,
    b: int = 10,
    gammas: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2),
    e: float = 0.1,
    seed0: int = 500,
) -> dict:
    """Table VI — exponential distributions (§VIII-E).

    Paper setup: Exp(γ) for γ ∈ {0.05, 0.1, 0.15, 0.2} (accurate AVG 1/γ),
    default parameters otherwise. Paper result: MV ≈ 2/γ (2× off), MVB
    ~9% high, ISLA slightly low but closest (e.g. 19.87 vs accurate 20).
    """
    sizes = round_robin_sizes(n, b)
    answers, _ = grid(
        ISLAConfig(e=e),
        (
            (seed0 + 10 * i, sizes,
             blocked_exponential(spark, n=n, b=b, gamma=g, seed=seed0 + 10 * i))
            for i, g in enumerate(gammas)
        ),
        {"MV": 5, "MVB": 6},
    )
    return {"gammas": list(gammas), "Accurate": [1.0 / g for g in gammas], **answers}


def _md_table6(res: dict) -> str:
    rows = [[m, *res[m]] for m in ("Accurate", "ISLA", "MV", "MVB")]
    return fmt_table(["γ", *map(str, res["gammas"])], rows)


def run_table7(
    spark: SparkSession,
    *,
    n: int = 1_000_000,
    b: int = 10,
    n_datasets: int = 5,
    lo: float = 1.0,
    hi: float = 199.0,
    e: float = 0.1,
    seed0: int = 700,
) -> dict:
    """Table VII — uniform distributions (§VIII-E).

    Paper setup: 5 datasets U[1, 199] (accurate AVG 100), default
    parameters. Paper result: MV ≈ 132 (the E[a²]/E[a] bias of U[1,199]),
    MVB 92.8–95.4, ISLA 99.5–99.85 — much more robust than both.
    """
    sizes = round_robin_sizes(n, b)
    answers, _ = grid(
        ISLAConfig(e=e),
        (
            (s, sizes, blocked_uniform(spark, n=n, b=b, lo=lo, hi=hi, seed=s))
            for s in range(seed0, seed0 + 10 * n_datasets, 10)
        ),
        {"MV": 5, "MVB": 6},
    )
    return {"mu": (lo + hi) / 2.0, "datasets": list(range(1, n_datasets + 1)), **answers}


def _md_table7(res: dict) -> str:
    rows = [[m, *res[m]] for m in ("ISLA", "MV", "MVB")]
    return fmt_table(["Dataset", *map(str, res["datasets"])], rows)


def run_noniid(
    spark: SparkSession,
    *,
    n_per_block: int = 200_000,
    n_runs: int = 5,
    e: float = 0.5,
    seed0: int = 900,
) -> dict:
    """§VIII-D — AVG aggregation on non-i.i.d. blocks.

    Paper setup: 5 blocks ~ N(100,20²), N(50,10²), N(80,30²), N(150,60²),
    N(120,40²), 10⁸ points each (scaled here), e=0.5; the §VII-C
    extension (per-block boundaries + blev sampling rates) is on. Paper
    result: 5 runs, all answers within 0.5 of the accurate 100
    (99.85–100.32). Each run draws fresh data and seeds.
    """
    params = [(100, 20), (50, 10), (80, 30), (150, 60), (120, 40)]
    sizes = {i: n_per_block for i in range(len(params))}
    answers, _ = grid(
        ISLAConfig(e=e),
        (
            (s, sizes, blocked_noniid_normal(
                spark, n_per_block=n_per_block, params=params, seed=s))
            for s in range(seed0, seed0 + 10 * n_runs, 10)
        ),
        {},
        non_iid=True,
    )
    return {"accurate": sum(mu for mu, _ in params) / len(params), "e": e, **answers}


def _md_noniid(res: dict) -> str:
    md = fmt_table(
        ["Run", *(str(i + 1) for i in range(len(res["ISLA"])))], [["ISLA", *res["ISLA"]]]
    )
    return md + f"\n\naccurate = {res['accurate']}, e = {res['e']}"


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
    """§VIII-A "Varying Data Size" — answers are independent of M.

    Paper setup: N(100, 20²) at M = 10⁸ … 10¹² ("100M … 1TB" files);
    answers 99.9927–100.0119, all within e=0.1, because the Eq. (1)
    sample size depends only on σ, e, β. We sweep scaled sizes (default
    10⁵/10⁶/10⁷ — the same m is drawn at every size, which is the entire
    point being demonstrated).
    """
    answers, results = grid(
        ISLAConfig(e=e),
        (
            (seed0 + 10 * i, round_robin_sizes(n, b),
             blocked_normal(spark, n=n, b=b, mu=mu, sigma=sigma, seed=seed0 + 10 * i))
            for i, n in enumerate(sizes)
        ),
        {},
    )
    return {"mu": mu, "e": e, "M": list(sizes), **answers,
            "m_required": [r.pre.m for r in results]}


def _md_datasize(res: dict) -> str:
    return fmt_table(
        ["M", *map(str, res["M"])],
        [["ISLA", *res["ISLA"]], ["m required", *res["m_required"]]],
    )


def run_efficiency(
    spark: SparkSession,
    *,
    sf: float = 0.1,
    b: int = 10,
    e: float = 500.0,
    repeats: int = 3,
    seed: int = 1300,
) -> dict:
    """§VIII-F — efficiency on TPC-H LINEITEM.

    Paper setup: TPC-H 100 GB (600M rows), AVG over a LINEITEM column,
    each algorithm run 20×; total run times (ms): ISLA 31 979, MV 61 718,
    MVB 70 584, US 25 989, STS 84 294 — shape: US < ISLA < MV < MVB < STS.

    Here: `synth_data.lineitem` at SF (default 0.1 → 600K rows, the
    benchmark scale), AVG(l_extendedprice), with the desired precision
    scaled to the column's magnitude so the sampling rate is a comparable
    small fraction. Timings are wall-clock over `repeats` runs per method
    on a cached DataFrame; block sizes and pre-estimation are computed
    once outside the timed region for all methods alike (the paper's
    metadata assumption).
    """
    cfg = ISLAConfig(e=e)
    data = (
        lineitem(spark, sf=sf, seed=seed)
        .withColumn("block", (F.col("l_orderkey") % b).cast("int"))
        .select("block", F.col("l_extendedprice").alias("v"))
    )
    with cached(data) as df:
        df.count()  # materialise the cache before timing
        pre = pre_estimate(df, "v", "block", cfg, seed=seed)
        sizes = pre.block_sizes
        methods = {
            "ISLA": lambda s: isla_avg(
                df, "v", "block", cfg, pre=pre, seed=s
            ).answer,
            **baselines(df, pre, cfg, sizes),
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


def _md_efficiency(res: dict) -> str:
    methods = ["ISLA", "MV", "MVB", "US", "STS"]
    md = fmt_table(
        ["Metric"] + methods,
        [
            ["time_ms"] + [round(res["time_ms"][m], 1) for m in methods],
            ["answer"] + [round(res["answers"][m], 2) for m in methods],
        ],
    )
    return md + (
        f"\n\naccurate = {res['accurate']:.2f}, rate = {res['rate']:.4f},"
        f" repeats = {res['repeats']}"
    )


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
    """§VIII-G — "real" data (shape-matched synthetic substitutes).

    Paper setup: Census-KDD salary (n=299 285, accurate 1740.38) and NYC
    TLC trip_distance×1000 (n=10 906 858, accurate 4648.2, "too big and
    too small values highly clustered"). MV/MVB/US/STS get m=20 000
    samples, ISLA only 10 000. Paper result: ISLA and US/STS close on
    salary; on the clustered TLC data ISLA (4515.73) far closer than MV
    (7426), MVB (3298), US (2909), STS (4289).

    Substitutes (DESIGN.md §3): `salary_like` (zero-inflated lognormal)
    and `tlc_like` (clustered bimodal mixture). The accurate value is a
    full scan, as the paper does for real data; the target sample size m
    is imposed by back-solving e = z·σ/√m so that every method draws ~m
    samples and ISLA draws ~m/2.
    """
    out = {}
    for name, gen, n in (
        ("salary", salary_like, n_salary),
        ("tlc", tlc_like, n_tlc),
    ):
        sizes = round_robin_sizes(n, b)
        with cached(gen(spark, n=n, b=b, seed=seed)) as df:
            stats = df.agg(
                F.avg("v").alias("avg"), F.stddev_samp("v").alias("std")
            ).first()
            e = z_score(beta) * float(stats["std"]) / math.sqrt(m_target)
            cfg = ISLAConfig(e=e, beta=beta)
            res = isla_avg(
                df, "v", "block", cfg, rate_factor=0.5, block_sizes=sizes, seed=seed
            )
            methods = baselines(df, res.pre, cfg, sizes)
            out[name] = {
                "accurate": float(stats["avg"]),
                "e": e,
                "m": res.pre.m,
                "ISLA": res.answer,
                **{k: methods[k](seed + off)
                   for k, off in {"MV": 5, "MVB": 6, "US": 7, "STS": 8}.items()},
            }
    return out


def _md_realdata(res: dict) -> str:
    rows = []
    for name in ("salary", "tlc"):
        r = res[name]
        rows.append(
            [name, round(r["accurate"], 2)]
            + [round(r[m], 2) for m in ("ISLA", "MV", "MVB", "US", "STS")]
        )
    return fmt_table(
        ["Dataset", "Accurate", "ISLA", "MV", "MVB", "US", "STS"], rows
    )


#: name → (runner, markdown table, runner kwargs under --small), in the
#: order ``all`` runs them.
EXPERIMENTS = {
    "table3": (run_table3, _md_table3, {"n": SMALL_N}),
    "table4": (run_table4, _md_table4, {"n": SMALL_N}),
    "table5": (run_table5, _md_table5, {"n": SMALL_N}),
    "table6": (run_table6, _md_table6, {"n": SMALL_N}),
    "table7": (run_table7, _md_table7, {"n": SMALL_N}),
    "noniid": (run_noniid, _md_noniid, {"n_per_block": 20_000}),
    "datasize": (run_datasize, _md_datasize, {}),
    "efficiency": (run_efficiency, _md_efficiency, {}),
    "realdata": (run_realdata, _md_realdata, {}),
}


def run(spark: SparkSession, name: str, small: bool = False) -> dict:
    """Run one experiment, print its table and persist the raw result."""
    runner, markdown, small_kwargs = EXPERIMENTS[name]
    result = runner(spark, **(small_kwargs if small else {}))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(result, indent=2, default=str))
    print(f"\n== {name} ==")
    print(markdown(result))
    print(f"[saved to {path}]")
    return result
