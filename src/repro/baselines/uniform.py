"""US — uniform sampling baseline (§VIII-B).

The estimator is the plain mean of a uniform Bernoulli sample at the
Eq. (1) rate: every sample weighted 1/m ("equally dividing the sum").
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.moments import sampled_moments


def uniform_avg(
    df: DataFrame, value_col: str, rate: float, *, seed: int = 0
) -> float:
    """AVG over a uniform sample of ``df`` at ``rate``."""
    m = sampled_moments(df, value_col, rate, seed)[()]
    if m.n == 0:
        raise ValueError("uniform sample was empty — rate too small")
    return m.mean
