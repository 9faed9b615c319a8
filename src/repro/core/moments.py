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

Phase 1 (:func:`sample_region_moments`) tags regions, samples,
aggregates per (block, region) and keeps S and L: 3 numbers per (block,
region), the "no sample storage" property. The base algorithm (§IV-A)
gives every block the same boundaries and fraction, so they go in as
literals; only the §VII-C non-iid extension broadcast-joins a per-block
bounds table, built with Arrow. Algorithm 1's cube sum feeds only
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
from pyspark.sql.types import DoubleType, StructField, StructType

from repro.core.boundaries import (
    DataBoundaries,
    Region,
    region_column,
    region_column_for,
)


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
    keeps every row), and a float fraction of 1.0 reads every row with
    no filter. Returns ``{key tuple: RegionMoments}`` with one entry
    per group of ``by`` that has a sampled row; ``by=()`` gives the
    single key ``()``, present even for an empty sample. The groups
    come back as one Arrow table, read column by column: on thousands
    of groups that is cheaper than building a ``Row`` per group.
    """
    if not isinstance(fraction, Column) and not 0.0 < fraction <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {fraction}")
    v = F.col(value_col).cast("double")
    if isinstance(fraction, Column) or fraction < 1.0:
        df = df.where(row_uniform(seed) < fraction)
    table = (
        df.groupBy(*by)
        .agg(F.count(v).alias("n"), F.avg(v).alias("mean"), F.var_pop(v).alias("var"))
        .toArrow()
    )
    cols = [c.to_pylist() for c in table.columns]
    keys = zip(*cols[: len(by)]) if by else [()] * table.num_rows
    return {
        key: RegionMoments(n, mean or 0.0, (var or 0.0) * n)
        for key, n, mean, var in zip(keys, *cols[len(by):])
    }


def _bounds_table(
    df: DataFrame,
    block_col: str,
    fractions: Mapping[object, float],
    bounds_by_block: Mapping[object, DataBoundaries],
) -> DataFrame:
    """One row per block: its key ``__block``, sampling fraction and four
    boundaries, handed to the JVM as an Arrow table (no Python worker)."""
    import pyarrow as pa  # only the per-block plan pays for the import

    bds = bounds_by_block.values()
    table = pa.table(
        {
            "__block": list(bounds_by_block),
            "__fraction": [fractions.get(b, 0.0) for b in bounds_by_block],
            "__s_lower": [bd.s_lower for bd in bds],
            "__s_upper": [bd.s_upper for bd in bds],
            "__l_lower": [bd.l_lower for bd in bds],
            "__l_upper": [bd.l_upper for bd in bds],
        }
    )
    schema = StructType(
        [StructField("__block", df.schema[block_col].dataType)]
        + [StructField(c, DoubleType()) for c in table.column_names[1:]]
    )
    return df.sparkSession.createDataFrame(table, schema=schema)


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
        are drawn in the shared plan but not returned. A null block key
        is a block like any other.

    Two plans, picked from the inputs. When every block has the same
    boundaries and fraction (iid mode), the shared plan tags and samples
    with literals and needs no join. Otherwise (non-iid mode) the
    per-block plan broadcast-joins :func:`_bounds_table` on the block
    key, null-safe when a null block is listed. When every row belongs
    to a listed block, both plans draw the same rows, except over a
    local relation, which Spark's optimizer samples on the driver as one
    partition.

    Returns a dict with, for every block that produced at least one S or
    L sample, the pair (param_S, param_L); a region with no samples is
    :meth:`RegionMoments.empty`.
    """
    value = F.col(value_col).cast("double")
    plans = {(bd, fractions.get(b, 0.0)) for b, bd in bounds_by_block.items()}
    if len(plans) == 1:
        ((bounds, fraction),) = plans
        rows, region = df, region_column_for(bounds, value)
        frac = F.lit(fraction)
    else:
        bounds_df = _bounds_table(df, block_col, fractions, bounds_by_block)
        # A null-safe join hashes two keys, (coalesce(k), isnull(k)): on
        # 4 M rows in 500 blocks (local[4]) it took ~290 ms more per call
        # than k = __block. Only a listed null block needs it.
        key = F.col(block_col)
        on = (
            key.eqNullSafe(F.col("__block"))
            if None in bounds_by_block
            else key == F.col("__block")
        )
        rows = df.join(F.broadcast(bounds_df), on)
        region = region_column(
            value,
            F.col("__s_lower"),
            F.col("__s_upper"),
            F.col("__l_lower"),
            F.col("__l_upper"),
        )
        frac = F.col("__fraction")
    # All five regions are aggregated: filtering to S∪L before sampling
    # would change which rows draw, so TS/N/TL are dropped below.
    moments = sampled_moments(rows, value_col, frac, seed, by=(block_col, region))
    out: BlockMoments = {}
    for (block, reg), m in moments.items():
        if block not in bounds_by_block or reg not in (Region.S.value, Region.L.value):
            continue
        m_s, m_l = out.get(block, (RegionMoments.empty(), RegionMoments.empty()))
        out[block] = (m, m_l) if reg == Region.S.value else (m_s, m)
    return out
