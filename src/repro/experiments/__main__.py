"""Run evaluation experiments and print their paper-shaped tables.

Usage: python -m repro.experiments <name|all> [--small]

Each experiment prints its markdown table and writes the raw result dict
to ``experiments_output/<name>.json`` at the repository root. ``--small``
shrinks n for a quick smoke run (Tables III–VII and the non-iid run; the
other experiments have no size knob here and run at their defaults).
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib

from pyspark.sql import SparkSession

from repro.experiments import (
    run_datasize,
    run_efficiency,
    run_noniid,
    run_realdata,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
)
from repro.experiments.runner import fmt_table

OUT = pathlib.Path(__file__).resolve().parents[3] / "experiments_output"
SMALL_N = 120_000


def _md_table3(res: dict) -> str:
    rows = [
        [m] + [round(x, 4) for x in res[m]] + [round(res[f"{m}_avg"], 4)]
        for m in ("ISLA", "MV", "MVB")
    ]
    return fmt_table(
        ["Method"] + [str(d) for d in res["datasets"]] + ["Average"], rows
    )


def _md_table4(res: dict) -> str:
    rows = [
        [m] + [round(x, 4) for x in res[m]]
        + [round(sum(res[m]) / len(res[m]), 4)]
        for m in ("ISLA", "MV", "MVB")
    ]
    md = fmt_table(
        ["Partial"] + [str(b + 1) for b in res["blocks"]] + ["Average"], rows
    )
    return md + (
        f"\n\nsketch0 = {res['sketch0']:.4f}, ISLA final = {res['ISLA_final']:.4f}"
    )


def _md_table5(res: dict) -> str:
    rows = [[m] + [round(x, 4) for x in res[m]] for m in ("ISLA", "US", "STS")]
    md = fmt_table(["Data set"] + [str(d) for d in res["datasets"]], rows)
    return md + (
        f"\n\nISLA participating samples: {res['isla_samples']}"
        f" — US/STS sample size m: {res['us_samples']}"
    )


def _md_table6(res: dict) -> str:
    rows = [
        [m] + [round(x, 4) for x in res[m]]
        for m in ("Accurate", "ISLA", "MV", "MVB")
    ]
    return fmt_table(["γ"] + [str(g) for g in res["gammas"]], rows)


def _md_table7(res: dict) -> str:
    rows = [[m] + [round(x, 4) for x in res[m]] for m in ("ISLA", "MV", "MVB")]
    return fmt_table(["Dataset"] + [str(d) for d in res["datasets"]], rows)


def _md_noniid(res: dict) -> str:
    md = fmt_table(
        ["Run"] + [str(i + 1) for i in range(len(res["ISLA"]))],
        [["ISLA"] + [round(x, 4) for x in res["ISLA"]]],
    )
    return md + f"\n\naccurate = {res['accurate']}, e = {res['e']}"


def _md_datasize(res: dict) -> str:
    return fmt_table(
        ["M"] + [str(m) for m in res["M"]],
        [
            ["ISLA"] + [round(x, 4) for x in res["ISLA"]],
            ["m required"] + res["m_required"],
        ],
    )


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


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__.split("\n\n")[0]
    )
    ap.add_argument("name", choices=[*EXPERIMENTS, "all"])
    ap.add_argument("--small", action="store_true", help="reduced n for a smoke run")
    args = ap.parse_args(argv)
    spark = (
        SparkSession.builder.appName("repro.experiments")
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    for name in EXPERIMENTS if args.name == "all" else [args.name]:
        run(spark, name, args.small)


if __name__ == "__main__":
    main()
