"""Append one row to ``BENCH_isla.json`` from islabench's traced records.

    python3 islabench/run.py --workload lineitem_cached --seed 7 --seconds 12 --trace 1
    python3 islabench/run.py --workload noniid_500blocks --seed 7 --seconds 12 --trace 1
    python3 benchmarks/append_bench_row.py --seed 7 --label "what changed"

A row holds the git sha, master and core count of the runs, and per
workload its CPU steal share, the p50 latencies of ISLA, US, STS and the
exact ``AVG``, ``isla_to_us``, jobs per query and every per-layer metric
(ms and job/task counts), all as islabench wrote them.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("lineitem_cached", "noniid_500blocks")
END_TO_END = (
    "isla_ms_p50", "us_ms_p50", "sts_ms_p50", "exact_ms_p50", "isla_to_us", "jobs_per_query"
)


def row(out: Path, seed: int, label: str) -> dict:
    recs = [
        json.loads((out / f"{w}-seed{seed}-trace1.json").read_text()) for w in WORKLOADS
    ]
    run = {k: recs[0][k] for k in ("git_sha", "master", "cores")}
    if any({k: r[k] for k in run} != run for r in recs):
        raise ValueError("records come from different commits or masters")
    return {
        "label": label,
        **run,
        "seed": seed,
        "workloads": {
            r["workload"]: {
                "cpu_steal_share": r["cpu_steal_share"],
                **{k: r["end_to_end"][k]["value"] for k in END_TO_END},
                "layers": {
                    k: v["value"] for k, v in r["per_layer"].items() if k not in END_TO_END
                },
            }
            for r in recs
        },
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", type=Path, default=ROOT / ".islabench" / "out",
                    help="islabench's record directory")
    ap.add_argument("--bench", type=Path, default=ROOT / "BENCH_isla.json")
    args = ap.parse_args()
    rows = json.loads(args.bench.read_text()) if args.bench.exists() else []
    rows.append(row(args.out, args.seed, args.label))
    args.bench.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
