"""STS — stratified sampling baseline (§VIII-B).

Strata are the storage blocks; allocation is proportional (the same
rate per stratum), and the estimator combines per-stratum sample means
weighted by the known stratum sizes |B_j| — the textbook stratified
mean estimator, i.e. ISLA's summarization step over plain block means.
"""
from __future__ import annotations

from collections.abc import Mapping

from pyspark.sql import DataFrame

from repro.core.isla import summarize
from repro.core.moments import sampled_moments


def stratified_avg(
    df: DataFrame,
    value_col: str,
    block_col: str,
    rate: float,
    block_sizes: Mapping[object, int],
    *,
    seed: int = 0,
) -> float:
    """Stratified AVG estimate: Σ mean_j·|B_j| / Σ|B_j|.

    Blocks outside ``block_sizes``, and blocks whose sample holds no
    value, carry no weight.
    """
    moments = sampled_moments(df, value_col, rate, seed, by=(block_col,))
    means = {b: m.mean for (b,), m in moments.items() if b in block_sizes and m.n}
    if not means:
        raise ValueError("stratified sample was empty — rate too small")
    return summarize(means, block_sizes)
