"""The three workloads of the ISLA query benchmark and their set-up.

Every input is generated inside Spark from ``spark.range`` with
``rand``/``randn`` columns. Going through pandas and ``createDataFrame``
instead costs seconds of set-up per million rows and, with Arrow on,
caches a ``LocalTableScan``-backed relation whose queries run slower
than on a scan-backed one, so the timings would not describe ISLA.
"""
from __future__ import annotations

import hashlib
import shutil
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

#: Partitions of every generated relation. Spark's seeded ``rand``,
#: ``randn``, ``sample`` and ``sampleBy`` draw per partition, so the data
#: and the answers depend on it; it is pinned so that a machine with
#: another core count generates the same rows.
INPUT_PARTITIONS = 4


def derive_seed(seed: int, *tags: object) -> int:
    """A 31-bit seed hashed from the workload seed and a tag.

    Real columns are not drawn from Spark's sampler RNG, but here both
    the generated columns (``F.rand(s)``) and ISLA's samplers
    (``df.sample(seed=s)``) seed the same per-partition XORShift stream.
    With raw seeds a query seed that equals a generator seed samples
    exactly the rows with the smallest generated uniforms: query seed 11
    on a column generated with seed 11 gave ``sketch0`` = 988 against a
    true mean of 45 848, and seed 12 raised "pilot sample is empty".
    Hashing every seed (as ``synth_data._mix`` does) keeps generator and
    sampler streams apart. The correlation itself is a defect of the
    program's per-partition sampling, not of this benchmark.
    """
    text = "/".join(str(t) for t in (seed, *tags)).encode()
    digest = hashlib.blake2b(text, digest_size=8).digest()
    return int.from_bytes(digest, "big") % (2**31 - 1)


@dataclass(frozen=True)
class Workload:
    """One set of inputs and one ISLA query over them."""

    name: str
    why: str
    rows: int
    blocks: int
    e: float
    non_iid: bool
    #: ``"cached"`` keeps the relation in Spark memory; ``"parquet"``
    #: writes it once and reads the files, uncached, on every query.
    storage: str
    #: Pass |B_j| to ``isla_avg`` as metadata instead of counting them.
    sizes_as_metadata: bool
    value_col: str
    block_col: str
    generate: Callable[[SparkSession, "Workload", int], DataFrame]


def _range(spark: SparkSession, n: int) -> DataFrame:
    return spark.range(0, n, 1, INPUT_PARTITIONS)


def _lineitem(spark: SparkSession, w: Workload, seed: int) -> DataFrame:
    """LINEITEM-shaped rows: ``l_extendedprice`` ~ U(900, 90 900), 2 dp."""
    n_orders = w.rows // 4  # TPC-H: ~4 lineitems per order
    orderkey = F.floor(F.rand(derive_seed(seed, "l_orderkey")) * n_orders) + 1
    price = F.round(
        F.lit(900.0) + F.lit(90_000.0) * F.rand(derive_seed(seed, "l_extendedprice")),
        2,
    )
    return _range(spark, w.rows).select(
        orderkey.cast("long").alias("l_orderkey"), price.alias("l_extendedprice")
    ).withColumn(w.block_col, (F.col("l_orderkey") % w.blocks).cast("int"))


def _block_id(w: Workload) -> Column:
    return (F.col("id") % w.blocks).cast("int").alias(w.block_col)


def _normal(spark: SparkSession, w: Workload, seed: int) -> DataFrame:
    """N(100, 20²) over round-robin blocks."""
    v = F.lit(100.0) + F.lit(20.0) * F.randn(derive_seed(seed, "v"))
    return _range(spark, w.rows).select(_block_id(w), v.alias(w.value_col))


def _noniid(spark: SparkSession, w: Workload, seed: int) -> DataFrame:
    """Block mean 50 + 10·(block mod 7), σ = 20, over round-robin blocks."""
    block = F.col("id") % w.blocks
    v = (
        F.lit(50.0)
        + F.lit(10.0) * (block % 7)
        + F.lit(20.0) * F.randn(derive_seed(seed, "v"))
    )
    return _range(spark, w.rows).select(_block_id(w), v.alias(w.value_col))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lineitem_cached",
            why="600K cached LINEITEM rows, 10 blocks: each of ISLA's Spark jobs "
            "costs mostly fixed scheduling, so job count and pre-estimation show",
            rows=600_000,
            blocks=10,
            e=500.0,
            non_iid=False,
            storage="cached",
            sizes_as_metadata=False,
            value_col="l_extendedprice",
            block_col="l_block",
            generate=_lineitem,
        ),
        Workload(
            name="parquet_normal_8m",
            why="8M normal rows read uncached from Parquet by every query: scan "
            "count and per-row aggregate cost show",
            rows=8_000_000,
            blocks=10,
            e=0.05,
            non_iid=False,
            storage="parquet",
            sizes_as_metadata=False,
            value_col="v",
            block_col="block",
            generate=_normal,
        ),
        Workload(
            name="noniid_500blocks",
            why="4M cached rows over 500 blocks, non-iid path, sizes as metadata: "
            "the 500-row bounds join and 500 driver-side modulations show",
            rows=4_000_000,
            blocks=500,
            e=0.2,
            non_iid=True,
            storage="cached",
            sizes_as_metadata=True,
            value_col="v",
            block_col="block",
            generate=_noniid,
        ),
    )
}


@dataclass
class Prepared:
    """A workload's relation, ready to query, and its exact answers."""

    df: DataFrame
    exact_avg: float
    exact_std: float
    block_sizes: dict
    setup_s: list[float]

    @property
    def M(self) -> int:
        return sum(self.block_sizes.values())


def _materialize(spark: SparkSession, w: Workload, seed: int, workdir: Path) -> DataFrame:
    df = w.generate(spark, w, seed)
    if w.storage == "cached":
        df = df.cache()
        df.count()
        return df
    path = workdir / w.name
    df.write.mode("overwrite").parquet(str(path))
    return spark.read.parquet(str(path))


def _exact(w: Workload, df: DataFrame) -> tuple[float, float, dict]:
    v = F.col(w.value_col).cast("double")
    row = df.agg(F.avg(v).alias("avg"), F.stddev_pop(v).alias("std")).first()
    sizes = {
        r[w.block_col]: int(r["count"]) for r in df.groupBy(w.block_col).count().collect()
    }
    return float(row["avg"]), float(row["std"]), sizes


def prepare(
    spark: SparkSession, w: Workload, seed: int, workdir: Path, repeats: int
) -> Prepared:
    """Set the workload up ``repeats`` times and keep the last relation.

    One set-up generates the rows, caches them or writes the Parquet
    files, and computes the exact AVG, σ and block sizes the answer
    checks and the baselines use. Repeating it gives a median set-up
    time; the earlier relations are released before the next one.
    """
    times: list[float] = []
    df = None
    for _ in range(repeats):
        if df is not None and w.storage == "cached":
            df.unpersist(blocking=True)
        t0 = time.perf_counter()
        df = _materialize(spark, w, derive_seed(seed, w.name, "data"), workdir)
        exact_avg, exact_std, sizes = _exact(w, df)
        times.append(time.perf_counter() - t0)
    return Prepared(df, exact_avg, exact_std, sizes, times)


def release(w: Workload, prepared: Prepared, workdir: Path) -> None:
    """Drop the cached relation or the Parquet files of a workload."""
    if w.storage == "cached":
        prepared.df.unpersist(blocking=True)
    shutil.rmtree(workdir / w.name, ignore_errors=True)
