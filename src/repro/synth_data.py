"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1's LINEITEM (6 M rows). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


# ---------------------------------------------------------------------------
# ISLA (ICDE'19) workloads: data points spread over storage blocks.
#
# The paper evaluates AVG aggregation on synthetic N(μ, σ²) data divided
# into b blocks (§VIII), plus exponential/uniform extremes (§VIII-E),
# non-iid blocks (§VIII-D), and two real data sets we substitute with
# shape-matched synthetic equivalents (§VIII-G; see DESIGN.md §3).
#
# Spark-native generators (`spark.range` + rand/randn) scale to 10^7+
# rows without driver materialisation; `*_pdf` pandas variants generate
# the identical-schema small data the DuckDB oracle tests need.
# ---------------------------------------------------------------------------

from pyspark.sql import functions as F  # noqa: E402


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


def blocked_normal_pdf(
    *, n: int, b: int = 10, mu: float = 100.0, sigma: float = 20.0,
    seed: int = 0,
) -> pd.DataFrame:
    """pandas twin of :func:`blocked_normal` for oracle-diffed tests."""
    g = _rng(seed)
    return pd.DataFrame(
        {"block": (np.arange(n) % b).astype("int32"), "v": mu + sigma * g.standard_normal(n)}
    )


def blocked_uniform_pdf(
    *, n: int, b: int = 10, lo: float = 1.0, hi: float = 199.0, seed: int = 0
) -> pd.DataFrame:
    """pandas twin of :func:`blocked_uniform`."""
    g = _rng(seed)
    return pd.DataFrame(
        {"block": (np.arange(n) % b).astype("int32"), "v": g.uniform(lo, hi, n)}
    )

