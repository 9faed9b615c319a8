"""The one sampler, and the moments record every sampled estimator reads.

Algorithm 1 (§VI-A) keeps only ``(counter, sum, squareSum)`` per region;
US, STS, the Eq. (4) re-weighting of MV/MVB and both pilots are
arithmetic on the same record over a Bernoulli sample. So one job shape,
:func:`sampled_moments`, serves them all:

    where(row_uniform(seed) < fraction) → groupBy(by).agg(count(v), avg(v), var_pop(v))

and :func:`row_uniform` alone decides which rows a seed samples. The
record keeps what (counter, sum, squareSum) keeps in centred form,
``(n, mean, Σ(v − mean)²)``, so its variance stays exact where
Σv² − (Σv)²/n cancels (|mean|/σ ≳ 1e7).

Phase 1 (:func:`sample_region_moments`) broadcast-joins a bounds table
holding each block's fraction and boundaries (so the §VII-C non-iid
extension uses the same job), tags regions, samples, aggregates per
(block, region) and keeps S and L: 3 numbers per (block, region), the
"no sample storage" property. Algorithm 1's cube sum feeds only
Theorem 3's k, which no answer reads (DESIGN.md §2), so it is left out;
the second moment stays for a confidence interval from the gathered
moments.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import reduce

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.boundaries import DataBoundaries, Region, region_column


@dataclass(frozen=True)
class RegionMoments:
    """Counter, mean and centred square sum ``m2 = Σ(v − mean)²`` of a
    sample's values.

    Algorithm 1's param_S / param_L, and the record every sampled
    estimator reads (:func:`sampled_moments`). It keeps what (counter,
    sum, squareSum) keeps, in centred form: :attr:`s1` and :attr:`s2`
    give the sums back.
    """

    n: int
    mean: float
    m2: float

    @staticmethod
    def empty() -> "RegionMoments":
        return RegionMoments(0, 0.0, 0.0)

    @staticmethod
    def from_values(values: Iterable[float]) -> "RegionMoments":
        """Driver-side accumulation (the updateParams loop of Alg. 1)."""
        return reduce(RegionMoments.add, values, RegionMoments.empty())

    def merge(self, other: "RegionMoments") -> "RegionMoments":
        """Combine two partial records (online-mode extension, §VII-A)
        by Chan's rule; an empty side returns the other unchanged."""
        if not other.n:
            return self
        if not self.n:
            return other
        n = self.n + other.n
        delta = other.mean - self.mean
        return RegionMoments(
            n,
            self.mean + delta * other.n / n,
            self.m2 + other.m2 + delta * delta * self.n * other.n / n,
        )

    def add(self, a: float) -> "RegionMoments":
        """updateParams(a, param): streaming single-sample update."""
        return self.merge(RegionMoments(1, a, 0.0))

    @property
    def s1(self) -> float:
        """Σv."""
        return self.n * self.mean

    @property
    def s2(self) -> float:
        """Σv²."""
        return self.m2 + self.n * self.mean * self.mean

    @property
    def std(self) -> float:
        """Sample standard deviation; 0.0 below two values."""
        return math.sqrt(self.m2 / (self.n - 1)) if self.n > 1 else 0.0


#: Per-block result of Phase 1: {block_id: (param_S, param_L)}.
BlockMoments = dict[object, tuple[RegionMoments, RegionMoments]]


def row_uniform(seed: int) -> Column:
    """A U[0, 1) draw per row; the Bernoulli sample at fraction f with
    this seed is the rows where ``row_uniform(seed) < f``.

    Spark draws per partition (``seed`` + partition index), exactly as
    ``df.sample(f, seed)`` and ``sampleBy`` do, so this picks the same
    rows they would.
    """
    return F.rand(seed)


def sampled_moments(
    df: DataFrame,
    value_col: str,
    fraction: float | Column,
    seed: int,
    by: Sequence[str | Column] = (),
) -> dict[tuple, RegionMoments]:
    """(count, mean, m2) of the non-null values of a Bernoulli sample.

    The sample is the rows where ``row_uniform(seed) < fraction``; a
    column ``fraction`` gives each row its own rate (a rate above 1
    keeps every row). Returns ``{key tuple: RegionMoments}`` with one
    entry per group of ``by`` that has a sampled row; ``by=()`` gives
    the single key ``()``, present even for an empty sample.
    """
    if not isinstance(fraction, Column) and not 0.0 < fraction <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {fraction}")
    v = F.col(value_col).cast("double")
    rows = (
        df.where(row_uniform(seed) < fraction)
        .groupBy(*by)
        .agg(F.count(v).alias("n"), F.avg(v).alias("mean"), F.var_pop(v).alias("var"))
        .collect()
    )
    k = len(by)
    return {
        tuple(r[:k]): RegionMoments(int(r.n), r.mean or 0.0, (r.var or 0.0) * r.n)
        for r in rows
    }


def _bounds_table(
    df: DataFrame,
    block_col: str,
    fractions: Mapping[object, float],
    bounds_by_block: Mapping[object, DataBoundaries],
) -> DataFrame:
    """One row per block: its sampling fraction and four boundaries."""
    spark = df.sparkSession
    rows = [
        (b, fractions.get(b, 0.0), bd.s_lower, bd.s_upper, bd.l_lower, bd.l_upper)
        for b, bd in bounds_by_block.items()
    ]
    block_type = df.schema[block_col].dataType.simpleString()
    return spark.createDataFrame(
        rows,
        schema=(
            f"{block_col} {block_type}, __fraction double, __s_lower double,"
            " __s_upper double, __l_lower double, __l_upper double"
        ),
    )


def sample_region_moments(
    df: DataFrame,
    value_col: str,
    block_col: str,
    fractions: Mapping[object, float],
    bounds_by_block: Mapping[object, DataBoundaries],
    *,
    seed: int = 0,
) -> BlockMoments:
    """Run Phase 1: per-block sampling + S/L moment accumulation.

    Parameters
    ----------
    fractions : per-block Bernoulli sampling fraction; the iid case
        passes the same rate for every block, the non-iid case passes
        the blev-derived rates of §VII-C. A fraction above 1 samples
        every row of its block.
    bounds_by_block : per-block data boundaries; rows of other blocks
        are not sampled.

    Returns a dict with, for every block that produced at least one S or
    L sample, the pair (param_S, param_L); a region with no samples is
    :meth:`RegionMoments.empty`.
    """
    bounds_df = _bounds_table(df, block_col, fractions, bounds_by_block)
    tagged = df.join(F.broadcast(bounds_df), on=block_col, how="inner")
    region = region_column(
        F.col(value_col).cast("double"),
        F.col("__s_lower"),
        F.col("__s_upper"),
        F.col("__l_lower"),
        F.col("__l_upper"),
    )
    # All five regions are aggregated: filtering to S∪L before sampling
    # would change which rows draw, so TS/N/TL are dropped below.
    moments = sampled_moments(
        tagged, value_col, F.col("__fraction"), seed, by=(block_col, region)
    )
    out: BlockMoments = {}
    for (block, reg), m in moments.items():
        if reg not in (Region.S.value, Region.L.value):
            continue
        m_s, m_l = out.get(block, (RegionMoments.empty(), RegionMoments.empty()))
        out[block] = (m, m_l) if reg == Region.S.value else (m_s, m)
    return out
