"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1's LINEITEM (6 M rows). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed``.
"""
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_PART_PER_SF = 200_000


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    """TPC-H-lite LINEITEM, generated on the executors from ``spark.range``.

    Each column draws from its own hashed seed (:func:`_mix`), so no
    column correlates with another or with the sampler.
    """
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    u = [F.rand(_mix(seed + k)) for k in range(10)]

    def integers(k: int, lo: int, hi: int):
        """Uniform integers in [lo, hi] from draw k."""
        return (F.floor(u[k] * (hi - lo + 1)) + lo).cast("long")

    def choice(k: int, values: str):
        return F.element_at(F.array(*map(F.lit, values)), integers(k, 1, len(values)).cast("int"))

    return spark.range(n).select(
        integers(0, 1, n_orders).alias("l_orderkey"),
        integers(1, 1, n_part).alias("l_partkey"),
        integers(2, 1, 7).alias("l_linenumber"),
        integers(3, 1, 50).cast("double").alias("l_quantity"),
        F.round(u[4] * 90000 + 900, 2).alias("l_extendedprice"),
        F.round(u[5] * 0.1, 2).alias("l_discount"),
        F.round(u[6] * 0.08, 2).alias("l_tax"),
        choice(7, "NRA").alias("l_returnflag"),
        choice(8, "OF").alias("l_linestatus"),
        F.date_add(F.lit("1992-01-01").cast("date"), integers(9, 0, 2556).cast("int"))
        .cast("timestamp")
        .alias("l_shipdate"),
    )


# ---------------------------------------------------------------------------
# ISLA (ICDE'19) workloads: data points spread over storage blocks.
#
# The paper evaluates AVG aggregation on synthetic N(μ, σ²) data divided
# into b blocks (§VIII), plus exponential/uniform extremes (§VIII-E),
# non-iid blocks (§VIII-D), and two real data sets we substitute with
# shape-matched synthetic equivalents (§VIII-G; see DESIGN.md §3).
#
# Spark-native generators (`spark.range` + rand/randn) scale to 10^7+
# rows, all generated on the executors.
# ---------------------------------------------------------------------------


def _mix(seed: int) -> int:
    """Decorrelate generator RNG from sampling RNG.

    ``df.sample(seed=s)`` and ``F.rand(seed=s)`` share Spark's
    per-partition XORShift seeding, so sampling with the seed that
    generated a ``rand``-derived column would select exactly the rows
    with the smallest uniforms (a perfectly value-correlated sample).
    Generators therefore hash their seed before handing it to
    rand/randn; determinism in ``seed`` is preserved.
    """
    return (seed * 1_000_003 + 998_244_353) % (2**31 - 1)


def _blocked(spark: SparkSession, n: int, b: int) -> DataFrame:
    """n rows with a round-robin block id in [0, b)."""
    if n < 1 or b < 1:
        raise ValueError(f"need n >= 1 and b >= 1, got n={n}, b={b}")
    return spark.range(n).select(
        (F.col("id") % b).cast("int").alias("block"), F.col("id")
    )


def round_robin_sizes(n: int, b: int) -> dict[int, int]:
    """|B_j| for the ``id % b`` block assignment of :func:`_blocked`.

    Block j holds the ids ≡ j (mod b) in [0, n), i.e. ⌈(n − j)/b⌉ rows.
    Passing these as metadata mirrors the paper's assumption that M and
    block sizes come from the catalog, and skips a count job.
    """
    return {j: (n - j + b - 1) // b for j in range(b)}


def blocked_normal(
    spark: SparkSession, *, n: int, b: int = 10, mu: float = 100.0,
    sigma: float = 20.0, seed: int = 0,
) -> DataFrame:
    """N(μ, σ²) values over b blocks — the paper's default workload."""
    return _blocked(spark, n, b).select(
        "block", (F.lit(mu) + F.lit(sigma) * F.randn(_mix(seed))).alias("v")
    )


def blocked_uniform(
    spark: SparkSession, *, n: int, b: int = 10, lo: float = 1.0,
    hi: float = 199.0, seed: int = 0,
) -> DataFrame:
    """U[lo, hi] values over b blocks (§VIII-E uniform extreme)."""
    return _blocked(spark, n, b).select(
        "block", (F.lit(lo) + F.lit(hi - lo) * F.rand(_mix(seed))).alias("v")
    )


def blocked_exponential(
    spark: SparkSession, *, n: int, b: int = 10, gamma: float = 0.1,
    seed: int = 0,
) -> DataFrame:
    """Exp(γ) values (mean 1/γ) over b blocks (§VIII-E) via inverse CDF."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    u = F.rand(_mix(seed))
    return _blocked(spark, n, b).select(
        "block", (-F.log(F.lit(1.0) - u) / F.lit(gamma)).alias("v")
    )


def blocked_noniid_normal(
    spark: SparkSession, *, n_per_block: int,
    params: list[tuple[float, float]] | None = None, seed: int = 0,
) -> DataFrame:
    """One normal distribution per block (§VIII-D).

    Defaults to the paper's five blocks: N(100,20²), N(50,10²),
    N(80,30²), N(150,60²), N(120,40²) — accurate overall AVG = 100.
    """
    params = params or [(100, 20), (50, 10), (80, 30), (150, 60), (120, 40)]
    parts = []
    for i, (mu, sigma) in enumerate(params):
        parts.append(
            spark.range(n_per_block).select(
                F.lit(i).cast("int").alias("block"),
                (F.lit(float(mu)) + F.lit(float(sigma)) * F.randn(_mix(seed + i))).alias("v"),
            )
        )
    out = parts[0]
    for p in parts[1:]:
        out = out.unionAll(p)
    return out


def salary_like(
    spark: SparkSession, *, n: int = 299_285, b: int = 10, seed: int = 7
) -> DataFrame:
    """Census-KDD-salary substitute (§VIII-G): zero-inflated lognormal.

    ~55% zeros plus a right-skewed lognormal wage component — the same
    heavy-right-skew/outlier structure; the exact mean is computed by a
    full scan in the experiment, as the paper does for real data.
    """
    base = _blocked(spark, n, b)
    nonzero = F.rand(_mix(seed)) >= 0.55
    wage = F.exp(F.lit(8.07) + F.lit(0.6) * F.randn(_mix(seed + 1)))  # median ~3200
    return base.select(
        "block", F.when(nonzero, wage).otherwise(F.lit(0.0)).alias("v")
    )


def tlc_like(
    spark: SparkSession, *, n: int = 1_000_000, b: int = 10, seed: int = 9
) -> DataFrame:
    """TLC trip_distance×1000 substitute (§VIII-G): clustered bimodal mix.

    "The too big values and the too small values are highly clustered":
    a dominant short-trip cluster, a mid cluster, a far-out large
    cluster, and a near-zero cluster.
    """
    base = _blocked(spark, n, b)
    u = F.rand(_mix(seed))
    g1 = F.lit(1500.0) + F.lit(400.0) * F.randn(_mix(seed + 1))
    g2 = F.lit(3000.0) + F.lit(800.0) * F.randn(_mix(seed + 2))
    g3 = F.lit(30000.0) + F.lit(8000.0) * F.randn(_mix(seed + 3))
    g4 = F.lit(100.0) + F.lit(30.0) * F.randn(_mix(seed + 4))
    v = (
        F.when(u < 0.70, g1)
        .when(u < 0.95, g2)
        .when(u < 0.99, g3)
        .otherwise(g4)
    )
    return base.select("block", F.greatest(v, F.lit(1.0)).alias("v"))
