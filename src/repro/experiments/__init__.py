"""Experiment runners — one module per evaluation table (DESIGN.md §5).

Each ``run_*`` function takes a SparkSession plus scale knobs and
returns a plain dict of paper-table-shaped rows. The ``EXPERIMENTS``
registry in ``repro.experiments.__main__`` runs them, prints their tables
and writes their result JSONs; ``python -m repro.experiments`` and
``benchmarks/bench_experiments.py`` both go through it.
"""

from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.experiments.table6 import run_table6
from repro.experiments.table7 import run_table7
from repro.experiments.noniid import run_noniid
from repro.experiments.datasize import run_datasize
from repro.experiments.efficiency import run_efficiency
from repro.experiments.realdata import run_realdata

__all__ = [
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_noniid",
    "run_datasize",
    "run_efficiency",
    "run_realdata",
]
