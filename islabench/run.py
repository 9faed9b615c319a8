"""ISLA query benchmark: ISLA, US, STS and the exact AVG, interleaved.

    python3 islabench/run.py --workload lineitem_cached --seed 1 --seconds 12 --trace 0

Load model: one driver process, a fixed ``local[k]`` master, one client in
a closed loop. A round runs one query of each method on one fresh query
seed, ISLA -> US -> STS -> exact with the start rotating by one each
round, so that drift within the process hits every method alike. After
WARMUP_S of untimed rounds, rounds repeat until ``--seconds`` have
passed, and at least over the fixed seed list. Every seed and every
input derives from ``--seed``.

``--trace 0`` measures the end-to-end metrics with no wrapper installed
and reports the BOUNDED ones. ``--trace 1`` alternates traced and
untraced rounds and reports the per-layer metrics (see ``tracer.py``),
the tracing overhead and the unbounded end-to-end metrics.
``--workload all`` runs every workload in one process.

Every answer is checked against the exact AVG computed at set-up; a
failed check or an exception counts as failed and does not stop the run.
Every metric is printed by name and unit; the last line of standard
output is one JSON object. The full record, and in a traced run the
spans, go to ``.islabench/out/``. The exit code is 1 when any query
failed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro.baselines.stratified as stratified_mod  # noqa: E402
import repro.baselines.uniform as uniform_mod  # noqa: E402
import repro.core.isla as isla_mod  # noqa: E402
import repro.core.pre_estimation as pre_mod  # noqa: E402
from repro.core.config import ISLAConfig, required_sample_size  # noqa: E402

from tracer import Tracer, count_group_jobs  # noqa: E402
from workloads import WORKLOADS, Prepared, Workload, derive_seed, prepare, release  # noqa: E402

#: Working files (Parquet inputs, Spark scratch); removed after each run.
WORK = ROOT / ".islabench" / "work"
#: Full records and spans of each run.
OUT = ROOT / ".islabench" / "out"

CORES = min(4, len(os.sched_getaffinity(0)))
METHODS = ("isla", "us", "sts", "exact")
#: The fixed seed list: the first queries of every run, over which the
#: accuracy and the counts are taken. A run measures at least these.
SEED_LIST_LEN = 5
#: Untimed rounds before timing, while the JVM's JIT warms up: latencies
#: of a fresh driver fall by a third over its first ~10 rounds.
WARMUP_S = 15.0
#: Set-ups per run; setup_s is their median. The first, on a cold JVM,
#: takes 4-6x as long as the third.
SETUP_REPEATS = 3
#: Gross answer check: every sampled answer must lie within this many e
#: of the exact AVG. ISLA, US and STS all aim at ±e at β = 0.95, so a
#: miss by 10·e means a broken answer, not an unlucky sample.
GROSS_E = 10.0
#: Tail percentiles tried, highest first; see ``tail``.
TAIL_CANDIDATES = (99, 95, 90, 75, 50)
TAIL_FALLBACK = 90
#: End-to-end metrics a regression check bounds (BENCHMARK.json). The
#: others are printed with them and reported, with no bound, by the
#: traced run. Absolute latencies follow the CPU time the hypervisor
#: steals for other guests: at a steal share of 0.10-0.19 an ISLA query
#: took 20-50 % longer, and over ten runs their quartile distance reached
#: 28 % of the median, past the largest bound allowed. The interleaved
#: ratio isla_to_us moved by a few per cent there. failed_share and
#: spark_storage_mb can read 0, and the accuracy pair rests on only
#: SEED_LIST_LEN seeds per run.
BOUNDED = ("isla_to_us", "jobs_per_query", "setup_s", "driver_peak_rss_mb")


def spark_conf(workdir: Path) -> dict[str, str]:
    """Every Spark setting the benchmark pins; recorded with each result."""
    return {
        "spark.master": f"local[{CORES}]",
        "spark.app.name": "islabench",
        "spark.driver.memory": "2g",
        "spark.driver.host": "127.0.0.1",
        "spark.driver.bindAddress": "127.0.0.1",
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={workdir / 'tmp'}",
        "spark.local.dir": str(workdir / "spark-local"),
        "spark.sql.warehouse.dir": str(workdir / "warehouse"),
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.sql.adaptive.enabled": "true",
        "spark.sql.shuffle.partitions": "64",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
    }


def start_spark(conf: dict[str, str]):
    # Only the settings above reach the JVM; an inherited submit line
    # would override the master or the driver memory.
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    from pyspark.sql import SparkSession

    builder = SparkSession.builder
    for k, v in conf.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        proc.wait(timeout=60)


# -- statistics ----------------------------------------------------------------
def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail(values: list[float]) -> tuple[int, float]:
    """The highest of TAIL_CANDIDATES with ≥ 10 samples beyond it.

    A run too short for even p50 to qualify (fewer than 20 samples)
    reports p90; the record states the percentile and the sample count.
    """
    s = sorted(values)
    for q in TAIL_CANDIDATES:
        if len(s) - math.ceil(q / 100 * len(s)) >= 10:
            return q, nearest_rank(s, q)
    return TAIL_FALLBACK, nearest_rank(s, TAIL_FALLBACK)


def driver_peak_rss_mb() -> float:
    """VmHWM of this (Python driver) process."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def spark_storage_mb(sc) -> float:
    """Memory the block manager holds for cached relations."""
    return sum(i.memSize() for i in sc._jsc.sc().getRDDStorageInfo()) / 2**20


def cpu_times() -> list[int]:
    """The machine-wide CPU time counters of /proc/stat."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def cpu_steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between.

    Recorded with each result: latencies drift with it, counts do not.
    """
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# -- one workload --------------------------------------------------------------
def exact_avg(df, value_col: str) -> float:
    from pyspark.sql import functions as F

    return float(df.agg(F.avg(F.col(value_col).cast("double"))).first()[0])


class Runner:
    """Runs the rounds of one workload and keeps what they measured."""

    def __init__(self, spark, w: Workload, prepared: Prepared, seed: int) -> None:
        self.sc = spark.sparkContext
        self.w = w
        self.p = prepared
        self.cfg = ISLAConfig(e=w.e)
        # US and STS sample at the Eq. (1) rate of the true σ, so neither
        # depends on an ISLA run and the rotation order cannot matter.
        m = required_sample_size(prepared.exact_std, w.e, self.cfg.beta)
        self.rate = min(1.0, m / prepared.M)
        self.seed = seed
        self.seeds = [self.seed_for("query", i) for i in range(SEED_LIST_LEN)]
        self.warmup_rounds = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.ms: dict[str, list[float]] = {m: [] for m in METHODS}
        #: traced query -> ISLA wall time measured around the call (ms)
        self.traced_isla_ms: dict[int, float] = {}
        #: per seed index: the first ISLA result and its job count
        self.first: dict[int, dict] = {}

    def call(self, method: str, seed: int):
        df, w = self.p.df, self.w
        if method == "isla":
            sizes = self.p.block_sizes if w.sizes_as_metadata else None
            return isla_mod.isla_avg(
                df, w.value_col, w.block_col, self.cfg,
                non_iid=w.non_iid, block_sizes=sizes, seed=seed,
            )
        if method == "us":
            return uniform_mod.uniform_avg(
                df, w.value_col, self.rate, seed=derive_seed(seed, "us")
            )
        if method == "sts":
            return stratified_mod.stratified_avg(
                df, w.value_col, w.block_col, self.rate, self.p.block_sizes,
                seed=derive_seed(seed, "sts"),
            )
        return exact_avg(df, w.value_col)

    def check(self, method: str, out) -> str | None:
        """Why the answer is wrong, or None."""
        exact = self.p.exact_avg
        if method == "exact":
            ok = math.isclose(out, exact, rel_tol=1e-9, abs_tol=1e-9)
            return None if ok else f"exact AVG {out!r} != set-up AVG {exact!r}"
        answer = out.answer if method == "isla" else out
        if not abs(answer - exact) <= GROSS_E * self.w.e:
            return f"{method} answer {answer!r} is more than {GROSS_E}·e from {exact!r}"
        if method == "isla":
            missing = set(self.p.block_sizes) - set(out.partials)
            if missing or not all(math.isfinite(v) for v in out.partials.values()):
                return f"isla partials missing or not finite for {len(missing)} blocks"
        return None

    def seed_for(self, stream: str, i: int) -> int:
        return derive_seed(self.seed, self.w.name, stream, i)

    def round(self, r: int, seed: int, tracer: Tracer | None = None) -> dict:
        """One query per method on ``seed``: {method: (ms, answer, group)}.

        Only answers that passed the check are returned.
        """
        k = r % len(METHODS)
        done = {}
        for method in METHODS[k:] + METHODS[:k]:
            self.attempted += 1
            group = f"islabench-{self.attempted}-{method}"
            if tracer is None:
                self.sc.setJobGroup(group, method)
            t0 = time.perf_counter()
            try:
                out = self.call(method, seed)
            except Exception as exc:  # counted and reported; the run goes on
                self.failures.append(f"seed {seed} {method}: {type(exc).__name__}: {exc}")
                continue
            finally:
                dt_ms = (time.perf_counter() - t0) * 1e3
                if tracer is None:
                    self.sc._jsc.clearJobGroup()
            problem = self.check(method, out)
            if problem:
                self.failures.append(f"seed {seed}: {problem}")
                continue
            done[method] = (dt_ms, out, group)
        return done

    def _measured(self, done: dict) -> None:
        for method, (ms, _, _) in done.items():
            self.ms[method].append(ms)

    def run(self, seconds: float, trace: bool) -> Tracer | None:
        """Warm up, then measure for ``seconds`` and ≥ SEED_LIST_LEN rounds.

        Every query uses a fresh seed: Spark inlines sampler seeds into
        generated code, so a repeated seed would hit the codegen cache
        and time a cheaper query than a new one. Traced mode follows each
        traced round with an untraced one on its own seed and the same
        rotation, so the overhead ratio compares like rounds.
        """
        tracer = Tracer(self.sc) if trace else None
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < WARMUP_S:
            self.round(self.warmup_rounds, self.seed_for("warmup", self.warmup_rounds))
            self.warmup_rounds += 1
        start, steal0 = time.perf_counter(), cpu_times()
        n = 0
        while n < SEED_LIST_LEN or time.perf_counter() - start < seconds:
            if trace:
                first = len(tracer.spans)
                tracer.query = n
                self._install(tracer)
                try:
                    done = self.round(n, self.seed_for("query", n), tracer)
                finally:
                    tracer.restore()
                tracer.resolve(first)
                self._keep(n, done, jobs=lambda: tracer.isla_jobs(first))
                if "isla" in done:
                    self.traced_isla_ms[n] = done["isla"][0]
                done = self.round(n, self.seed_for("untraced", n))
                self._measured(done)
            else:
                done = self.round(n, self.seed_for("query", n))
                self._measured(done)
                self._keep(n, done, jobs=lambda: count_group_jobs(self.sc, done["isla"][2]))
            n += 1
        self.rounds = n
        self.elapsed_s = time.perf_counter() - start
        self.steal_share = cpu_steal_share(steal0, cpu_times())
        return tracer

    def _keep(self, n: int, done: dict, jobs) -> None:
        """Keep ISLA's answer and job count for the fixed seed list."""
        if n < SEED_LIST_LEN and "isla" in done:
            self.first[n] = {"result": done["isla"][1], "jobs": jobs()}

    def _install(self, t: Tracer) -> None:
        t.wrap(isla_mod, "isla_avg", "isla.isla_avg", spark=True)
        t.wrap(isla_mod, "pre_estimate", "pre_estimation.pre_estimate", spark=True)
        t.wrap(pre_mod, "compute_block_sizes", "pre_estimation.compute_block_sizes", spark=True)
        t.wrap(isla_mod, "sample_region_moments", "moments.sample_region_moments", spark=True)
        t.wrap(isla_mod, "modulate_block", "iteration.modulate_block", spark=False)
        t.wrap(isla_mod, "summarize", "isla.summarize", spark=False)
        t.wrap(uniform_mod, "uniform_avg", "baselines.uniform_avg", spark=True)
        t.wrap(stratified_mod, "stratified_avg", "baselines.stratified_avg", spark=True)
        t.wrap(sys.modules[__name__], "exact_avg", "exact.avg", spark=True)


# -- metrics -------------------------------------------------------------------
def accuracy(runner: Runner) -> dict:
    e, exact = runner.w.e, runner.p.exact_avg
    errs = [abs(f["result"].answer - exact) / e for f in runner.first.values()]
    return {
        "within_e_share": (sum(x <= 1.0 for x in errs) / len(errs), "share"),
        "abs_err_over_e_p50": (median(errs), "ratio"),
    }


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    ms = runner.ms
    isla = ms["isla"]
    q, tail_ms = tail(isla) if isla else (TAIL_FALLBACK, float("nan"))
    jobs = [f["jobs"] for f in runner.first.values()]
    metrics = {
        "isla_ms_p50": (median(isla), "ms"),
        "isla_ms_tail": (tail_ms, "ms"),
        "isla_qps": (len(isla) / (sum(isla) / 1e3) if isla else float("nan"), "1/s"),
        "us_ms_p50": (median(ms["us"]), "ms"),
        "sts_ms_p50": (median(ms["sts"]), "ms"),
        "exact_ms_p50": (median(ms["exact"]), "ms"),
        "isla_to_us": (median(isla) / median(ms["us"]), "ratio"),
        "jobs_per_query": (statistics.fmean(jobs) if jobs else float("nan"), "count"),
        **accuracy(runner),
        "failed_share": (len(runner.failures) / runner.attempted, "share"),
        "setup_s": (median(runner.p.setup_s), "s"),
        "driver_peak_rss_mb": (driver_peak_rss_mb(), "MB"),
        "spark_storage_mb": (spark_storage_mb(runner.sc), "MB"),
    }
    notes = {"isla_tail_percentile": q, "samples_per_method": {m: len(v) for m, v in ms.items()}}
    return metrics, notes


#: Span-derived per-layer metrics, named ``<span>.<field>``. Times are
#: medians over traced queries of a query's total; counts are per-query
#: means over the fixed seed list, so they repeat exactly.
SPAN_TIMES = {
    "pre_estimation.compute_block_sizes": "ms",
    "pre_estimation.pre_estimate": "self_ms",
    "moments.sample_region_moments": "ms",
    "iteration.modulate_block": "ms",
    "isla.summarize": "ms",
    "isla.isla_avg": "self_ms",
    "baselines.uniform_avg": "ms",
    "baselines.stratified_avg": "ms",
    "exact.avg": "ms",
}
SPAN_COUNTS = {
    "pre_estimation.compute_block_sizes": ("jobs", "tasks"),
    "pre_estimation.pre_estimate": ("jobs", "tasks"),
    "moments.sample_region_moments": ("jobs", "tasks"),
    "iteration.modulate_block": ("calls",),
    "isla.isla_avg": ("jobs",),
    "baselines.uniform_avg": ("jobs",),
    "baselines.stratified_avg": ("jobs",),
}
#: Per-layer counts read off ISLAResult, as per-query means over the seed list.
RESULT_COUNTS = {
    "pre_estimation.pre_estimate.pilot_rows": (
        lambda r: sum(p.n for p in r.pre.pilot.values()), "count"),
    "moments.sample_region_moments.sl_rows": (lambda r: r.samples_participating, "count"),
    "moments.sample_region_moments.sl_share": (
        lambda r: r.samples_participating / r.pre.m, "share"),
    "iteration.modulate_block.iters": (
        lambda r: sum(a.iters for a in r.blocks.values()), "count"),
    "iteration.modulate_block.clamped": (
        lambda r: sum(a.clamped for a in r.blocks.values()), "count"),
    "iteration.modulate_block.case5": (
        lambda r: sum(a.case == 5 for a in r.blocks.values()), "count"),
}


def per_layer(runner: Runner, tracer: Tracer) -> dict:
    """Per-layer metrics of the traced rounds; see SPAN_TIMES."""
    by_query: dict[int, dict[str, Counter]] = {}
    for s in tracer.spans:
        by_query.setdefault(s.query, {}).setdefault(s.name, Counter()).update(
            ms=s.ns / 1e6, self_ms=s.self_ns / 1e6, calls=1, jobs=s.jobs, tasks=s.tasks
        )
    seed_list = sorted(by_query)[:SEED_LIST_LEN]
    m = {}
    for name, field in SPAN_TIMES.items():
        values = [by_query[q].get(name, Counter())[field] for q in by_query]
        m[f"{name}.{field}"] = (median(values), "ms")
    for name, fields in SPAN_COUNTS.items():
        for field in fields:
            values = [by_query[q].get(name, Counter())[field] for q in seed_list]
            m[f"{name}.{field}"] = (statistics.fmean(values), "count")
    results = [runner.first[i]["result"] for i in sorted(runner.first)]
    for name, (f, unit) in RESULT_COUNTS.items():
        m[name] = (statistics.fmean(f(r) for r in results), unit)
    m["spark.failed_tasks"] = (sum(s.failed_tasks for s in tracer.spans), "count")
    traced = runner.traced_isla_ms
    m["trace.overhead_ratio"] = (median(list(traced.values())) / median(runner.ms["isla"]), "ratio")
    # The isla_avg span's time is the sum of its subtree's self times.
    m["trace.self_coverage"] = (median([
        by_query[q]["isla.isla_avg"]["ms"] / wall for q, wall in traced.items()
    ]), "ratio")
    return m


# -- command line --------------------------------------------------------------
def run_workload(spark, w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    prepared = prepare(spark, w, seed, WORK, SETUP_REPEATS)
    try:
        runner = Runner(spark, w, prepared, seed)
        tracer = runner.run(seconds, trace)
        e2e, notes = end_to_end(runner)
        layers = per_layer(runner, tracer) if tracer else {}
        layers.update((k, v) for k, v in e2e.items() if k not in BOUNDED)
    finally:
        release(w, prepared, WORK)
    sc = spark.sparkContext
    record = {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "trace": int(trace),
        "git_sha": git_sha(),
        "master": sc.master,
        "cores": sc.defaultParallelism,
        "spark_version": spark.version,
        "python": platform.python_version(),
        "spark_conf": spark_conf(WORK),
        "M": prepared.M,
        "b": len(prepared.block_sizes),
        "e": w.e,
        "beta": runner.cfg.beta,
        "baseline_rate": runner.rate,
        "exact_avg": prepared.exact_avg,
        "seed_list": runner.seeds,
        "rounds_measured": runner.rounds,
        "warmup_s": WARMUP_S,
        "warmup_rounds": runner.warmup_rounds,
        "measured_s": runner.elapsed_s,
        "cpu_steal_share": runner.steal_share,
        "setup_s_all": prepared.setup_s,
        **notes,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "latencies_ms": runner.ms,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        with open(OUT / f"{stem}-spans.jsonl", "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(asdict(s)) + "\n")
    return record


def print_record(rec: dict) -> None:
    print(f"== {rec['workload']}: master={rec['master']} cores={rec['cores']} "
          f"spark={rec['spark_version']} git={rec['git_sha'][:12]} M={rec['M']} "
          f"b={rec['b']} e={rec['e']} seed={rec['seed']} seeds={rec['seed_list']} "
          f"cpu_steal={rec['cpu_steal_share']:.3f}")
    print(f"   isla_ms_tail is p{rec['isla_tail_percentile']}; samples per method: "
          f"{rec['samples_per_method']}")
    metrics = {**rec["end_to_end"], **rec["per_layer"]}
    for name, m in metrics.items():
        print(f"   {name:45s} {m['value']:14.4f} {m['unit']}")
    for failure in rec["failures"]:
        print(f"   FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    spark = start_spark(spark_conf(WORK))
    try:
        records = [
            run_workload(spark, WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
            for n in names
        ]
    finally:
        stop_spark(spark)
        shutil.rmtree(WORK, ignore_errors=True)

    def reported(rec: dict) -> dict:
        if args.trace:
            return rec["per_layer"]
        return {k: v for k, v in rec["end_to_end"].items() if k in BOUNDED}

    for rec in records:
        print_record(rec)

    failed = sum(len(r["failures"]) for r in records)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": reported(records[0]) if len(records) == 1 else
        {f"{r['workload']}.{k}": v for r in records for k, v in reported(r).items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
