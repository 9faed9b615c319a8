"""Run evaluation experiments and print their paper-shaped tables.

Usage: python -m repro.experiments <name|all> [--small]

Each experiment prints its markdown table and writes the raw result dict
to ``experiments_output/<name>.json`` at the repository root. ``--small``
shrinks n for a quick smoke run (Tables III–VII and the non-iid run; the
other experiments have no size knob here and run at their defaults).
"""
from __future__ import annotations

import argparse
import os

from pyspark.sql import SparkSession

from repro.experiments import EXPERIMENTS, run


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
