"""Phase 1 — the sampling job (Algorithm 1, §VI-A) as a Spark DataFrame job.

Per block, ISLA records only ``param_S``/``param_L`` = (counter, sum,
squareSum) of the samples falling in the S/L regions; everything else is
dropped. In Spark this is:

    sampleBy(block)                       # per-block Bernoulli sampling
      → region tag from the (joined) boundary columns
      → filter(region ∈ {S, L})
      → groupBy(block, region).agg(count, Σx, Σx²)

which is exactly the streaming update loop of Algorithm 1, executed by
Catalyst with partial aggregation (the "no sample storage" property is
preserved: the shuffle carries 3 numbers per (block, region)).
Algorithm 1 also keeps the cube sum, which only Theorem 3's k reads; no
answer depends on k (DESIGN.md §2), so the job leaves it out. The answer
reads only count and Σx; Σx² stays because a confidence interval from
the gathered moments needs it.

Per-block boundary columns come from a broadcast-joined bounds table so
that the §VII-C non-iid extension (different boundaries per block) uses
the same job; the iid case simply repeats one row per block.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.boundaries import DataBoundaries, Region, region_column


@dataclass(frozen=True)
class RegionMoments:
    """param_S / param_L: counter, sum, square sum."""

    n: int
    s1: float
    s2: float

    @staticmethod
    def empty() -> "RegionMoments":
        return RegionMoments(0, 0.0, 0.0)

    @staticmethod
    def from_values(values: Iterable[float]) -> "RegionMoments":
        """Driver-side accumulation (the updateParams loop of Alg. 1)."""
        n, s1, s2 = 0, 0.0, 0.0
        for a in values:
            n += 1
            s1 += a
            s2 += a * a
        return RegionMoments(n, s1, s2)

    def merge(self, other: "RegionMoments") -> "RegionMoments":
        """Combine two partial records (online-mode extension, §VII-A)."""
        return RegionMoments(
            self.n + other.n,
            self.s1 + other.s1,
            self.s2 + other.s2,
        )

    def add(self, a: float) -> "RegionMoments":
        """updateParams(a, param): streaming single-sample update."""
        return RegionMoments(self.n + 1, self.s1 + a, self.s2 + a * a)

    @property
    def mean(self) -> float:
        return self.s1 / self.n if self.n else 0.0


#: Per-block result of Phase 1: {block_id: (param_S, param_L)}.
BlockMoments = dict[object, tuple[RegionMoments, RegionMoments]]


def _bounds_table(
    df: DataFrame,
    block_col: str,
    bounds_by_block: Mapping[object, DataBoundaries],
) -> DataFrame:
    """One row per block with the four boundary columns."""
    spark = df.sparkSession
    rows = [
        (b, bd.s_lower, bd.s_upper, bd.l_lower, bd.l_upper)
        for b, bd in bounds_by_block.items()
    ]
    block_type = df.schema[block_col].dataType.simpleString()
    return spark.createDataFrame(
        rows,
        schema=(
            f"{block_col} {block_type}, __s_lower double, __s_upper double,"
            " __l_lower double, __l_upper double"
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
    fractions : per-block Bernoulli sampling fraction (``sampleBy``); the
        iid case passes the same rate for every block, the non-iid case
        passes the blev-derived rates of §VII-C.
    bounds_by_block : per-block data boundaries.

    Returns a dict with, for every block that produced at least one S or
    L sample, the pair (param_S, param_L); a region with no samples is
    :meth:`RegionMoments.empty`.
    """
    clipped = {b: min(1.0, max(0.0, f)) for b, f in fractions.items()}
    sampled = df.sampleBy(block_col, clipped, seed=seed)
    v = F.col(value_col).cast("double")
    bounds_df = _bounds_table(df, block_col, bounds_by_block)
    tagged = (
        sampled.join(F.broadcast(bounds_df), on=block_col, how="inner")
        .withColumn("__v", v)
        .withColumn(
            "__region",
            region_column(
                F.col("__v"),
                F.col("__s_lower"),
                F.col("__s_upper"),
                F.col("__l_lower"),
                F.col("__l_upper"),
            ),
        )
        .filter(F.col("__region").isin(Region.S.value, Region.L.value))
    )
    rows = (
        tagged.groupBy(block_col, "__region")
        .agg(
            F.count("*").alias("n"),
            F.sum("__v").alias("s1"),
            F.sum(F.col("__v") ** 2).alias("s2"),
        )
        .collect()
    )
    out: BlockMoments = {}
    for r in rows:
        block = r[block_col]
        m_s, m_l = out.get(block, (RegionMoments.empty(), RegionMoments.empty()))
        m = RegionMoments(int(r["n"]), float(r["s1"]), float(r["s2"]))
        if r["__region"] == Region.S.value:
            m_s = m
        else:
            m_l = m
        out[block] = (m_s, m_l)
    return out
