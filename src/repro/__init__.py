"""Reproduction of "An Iterative Scheme for Leverage-based Approximate
Aggregation" (ISLA), ICDE 2019.

Public surface:

* :mod:`repro.core` — the ISLA system (pre-estimation, S/L moments,
  iterative modulation, summarisation).
* :mod:`repro.baselines` — US / STS / MV / MVB comparators.
* :mod:`repro.experiments` — one runner per evaluation table.
* :mod:`repro.synth_data` — deterministic synthetic data generators.

The DuckDB checker and the paper-fidelity references (leverages,
Theorem 3) are test code: ``tests/oracle.py`` and
``tests/paper_reference.py``.
"""

__version__ = "0.1.0"
