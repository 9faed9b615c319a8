"""MV / MVB — the sample+seek measure-biased technique (§VIII-C).

Per §VIII-C the comparison re-weights a *uniform* sample with the
measure-biased probabilities of Eq. (4):

* **MV** ("probabilities on values"): ``prob_i = a_i/Σa`` over the whole
  sample, so the estimate is ``Σ prob_i·a_i = Σa²/Σa``. Closed form on
  N(μ, σ²): (μ²+σ²)/μ (= 104.0 for the paper's default data — exactly
  the Table III MV row); on Exp(γ): 2/γ (= the Table VI MV row).
* **MVB** ("probabilities on values and boundaries"): samples are
  divided by the ISLA data boundaries into the 5 regions; each region's
  probability mass is its sample share ``n_g/m`` (the Constraint-2
  analogue) and within a region probabilities are proportional to
  values, so the estimate is ``Σ_g (n_g/m)·(Σ_g a²/Σ_g a)``.

Per-block variants back the Table IV partial-answer comparison.
"""
from __future__ import annotations

from collections.abc import Iterable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.boundaries import DataBoundaries, region_column_for
from repro.core.moments import RegionMoments, sampled_moments


def mv_avg(df: DataFrame, value_col: str, rate: float, *, seed: int = 0) -> float:
    """MV estimate Σa²/Σa over a uniform sample."""
    m = sampled_moments(df, value_col, rate, seed)[()]
    if m.s1 == 0:
        raise ValueError("MV sample empty or sums to zero")
    return m.s2 / m.s1


def mv_block_avgs(
    df: DataFrame, value_col: str, block_col: str, rate: float, *, seed: int = 0
) -> dict:
    """Per-block MV estimates (Table IV partials)."""
    moments = sampled_moments(df, value_col, rate, seed, by=(block_col,))
    return {b: m.s2 / m.s1 for (b,), m in moments.items() if m.s1}


def _mvb(regions: Iterable[RegionMoments]) -> float:
    """Combine per-region (n_g, Σa_g, Σa²_g) into the MVB estimate."""
    regions = list(regions)
    m = sum(g.n for g in regions)
    if m == 0:
        raise ValueError("MVB sample empty")
    # A region whose values sum to zero carries no mass.
    return sum(((g.n / m) * (g.s2 / g.s1) for g in regions if g.s1 != 0.0), 0.0)


def mvb_avg(
    df: DataFrame,
    value_col: str,
    rate: float,
    bounds: DataBoundaries,
    *,
    seed: int = 0,
) -> float:
    """MVB estimate Σ_g (n_g/m)·Σ_g a²/Σ_g a over the 5 regions."""
    by = (region_column_for(bounds, F.col(value_col).cast("double")),)
    return _mvb(sampled_moments(df, value_col, rate, seed, by=by).values())


def mvb_block_avgs(
    df: DataFrame,
    value_col: str,
    block_col: str,
    rate: float,
    bounds: DataBoundaries,
    *,
    seed: int = 0,
) -> dict:
    """Per-block MVB estimates (Table IV partials)."""
    by = (block_col, region_column_for(bounds, F.col(value_col).cast("double")))
    by_block: dict = {}
    for (b, _), m in sampled_moments(df, value_col, rate, seed, by=by).items():
        if m.n:  # a block whose sample holds no value has no estimate
            by_block.setdefault(b, []).append(m)
    return {b: _mvb(ms) for b, ms in by_block.items()}
