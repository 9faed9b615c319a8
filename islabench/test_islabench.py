"""Self-test of the benchmark's own code.

    python -m pytest islabench/test_islabench.py -q

The last test runs the benchmark twice as a subprocess (about a minute).
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import Runner, tail  # noqa: E402
from tracer import Span  # noqa: E402
from workloads import WORKLOADS, Prepared, derive_seed  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond() -> None:
    values = [float(v) for v in range(1, 101)]
    assert tail(values) == (90, 90.0)  # p95 leaves only 5 beyond
    assert tail(values[:20]) == (50, 10.0)
    assert tail(values[:9]) == (90, 9.0)  # too few: the stated fallback


def test_derived_seeds_are_stable_and_distinct() -> None:
    assert derive_seed(11, "v") == derive_seed(11, "v")
    seeds = {derive_seed(s, t) for s in range(50) for t in ("v", "query", "us")}
    assert len(seeds) == 150
    assert all(0 <= s < 2**31 - 1 for s in seeds)


def test_span_duration() -> None:
    s = Span(id=0, parent=None, query=0, name="x", start_ns=5, end_ns=12)
    assert s.ns == 7


def test_answer_check_flags_wrong_answers_and_missing_blocks() -> None:
    r = object.__new__(Runner)  # check() needs no Spark
    r.w = WORKLOADS["lineitem_cached"]
    r.p = Prepared(df=None, exact_avg=100.0, exact_std=1.0,
                   block_sizes={0: 5, 1: 5}, setup_s=[1.0])
    e = r.w.e
    assert r.check("us", 100.0 + 9 * e) is None
    assert r.check("sts", 100.0 - 11 * e) is not None
    assert r.check("us", float("nan")) is not None
    assert r.check("isla", SimpleNamespace(answer=100.0, partials={0: 1.0, 1: 2.0})) is None
    assert r.check("isla", SimpleNamespace(answer=100.0, partials={0: 1.0})) is not None
    nan_block = SimpleNamespace(answer=100.0, partials={0: 1.0, 1: float("nan")})
    assert r.check("isla", nan_block) is not None
    assert r.check("exact", 100.0) is None
    assert r.check("exact", 100.001) is not None


#: Counts the program makes deterministic for a fixed seed list.
COUNTS = [
    "pre_estimation.compute_block_sizes.jobs",
    "pre_estimation.compute_block_sizes.tasks",
    "pre_estimation.pre_estimate.jobs",
    "pre_estimation.pre_estimate.tasks",
    "pre_estimation.pre_estimate.pilot_rows",
    "moments.sample_region_moments.jobs",
    "moments.sample_region_moments.tasks",
    "moments.sample_region_moments.sl_rows",
    "iteration.modulate_block.calls",
    "iteration.modulate_block.iters",
    "iteration.modulate_block.clamped",
    "iteration.modulate_block.case5",
    "baselines.uniform_avg.jobs",
    "baselines.stratified_avg.jobs",
]


def _traced_run(seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lineitem_cached",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_two_traced_runs_of_one_seed_list_repeat_every_count() -> None:
    first, second = _traced_run(7), _traced_run(7)
    assert first["correct"] and second["correct"]
    a, b = first["metrics"], second["metrics"]
    for name in [*COUNTS, "within_e_share"]:
        assert a[name] == b[name], name
    assert a["pre_estimation.compute_block_sizes.jobs"]["value"] > 0
    assert a["iteration.modulate_block.calls"]["value"] == 10
