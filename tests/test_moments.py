"""Phase 1 and the shared sampler: streaming moments, the Spark jobs and
the one-sampler invariant.

The Spark job at rate 1.0 is deterministic, so its per-block/region
moments are oracle-diffed against DuckDB computing the same CASE +
GROUP BY aggregation over identical data.
"""
import ast
import math
from pathlib import Path

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

import repro
from repro.core.boundaries import DataBoundaries, Region
from repro.core.config import ISLAConfig
from repro.core.moments import RegionMoments, sample_region_moments, sampled_moments
from repro.core.pre_estimation import pre_estimate
from repro.oracle import assert_equivalent
from repro.synth_data import blocked_normal_pdf

BOUNDS = DataBoundaries(sketch0=100.0, sigma=20.0)  # S=(60,90), L=(110,140)


class TestRegionMoments:
    def test_from_values(self):
        m = RegionMoments.from_values([1.0, 2.0, 3.0])
        assert m.n == 3
        assert m.s1 == 6.0
        assert m.s2 == 14.0

    def test_empty(self):
        m = RegionMoments.empty()
        assert (m.n, m.s1, m.s2) == (0, 0.0, 0.0)
        assert m.mean == 0.0

    def test_add_matches_from_values(self):
        m = RegionMoments.empty()
        for a in [2.0, 5.0, 7.0]:
            m = m.add(a)
        assert m == RegionMoments.from_values([2.0, 5.0, 7.0])

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), max_size=20),
        st.lists(st.floats(min_value=-100, max_value=100), max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_is_concatenation(self, a, b):
        """The online-mode extension (§VII-A): merging two rounds of
        param records equals one pass over the union."""
        merged = RegionMoments.from_values(a).merge(RegionMoments.from_values(b))
        whole = RegionMoments.from_values(a + b)
        assert merged.n == whole.n
        assert merged.s1 == pytest.approx(whole.s1, rel=1e-9, abs=1e-9)
        assert merged.s2 == pytest.approx(whole.s2, rel=1e-9, abs=1e-9)

    def test_mean(self):
        assert RegionMoments.from_values([2.0, 4.0]).mean == 3.0

    def test_std(self):
        assert RegionMoments.from_values([2.0, 4.0, 9.0]).std == pytest.approx(
            np.std([2.0, 4.0, 9.0], ddof=1), rel=1e-12
        )
        assert RegionMoments.from_values([5.0]).std == 0.0
        assert RegionMoments.empty().std == 0.0

    def test_merge_with_empty_is_exact(self):
        m = RegionMoments.from_values([0.1, 0.7, 1e9])
        assert m.merge(RegionMoments.empty()) == m
        assert RegionMoments.empty().merge(m) == m

    def test_merged_variance_is_exact_at_large_mean(self):
        """Centred moments keep the variance where Σv² − (Σv)²/n cancels
        (|mean|/σ ≈ 1e9 here): merged halves give numpy's sample std."""
        vals = 1e9 + np.random.default_rng(0).standard_normal(2_000)
        merged = RegionMoments.from_values(vals[:1_000]).merge(
            RegionMoments.from_values(vals[1_000:])
        )
        assert merged.n == 2_000
        assert merged.std == pytest.approx(np.std(vals, ddof=1), rel=1e-6)


class TestSparkJob:
    @pytest.fixture(scope="class")
    def pdf(self):
        return blocked_normal_pdf(n=20_000, b=4, seed=21)

    @pytest.fixture(scope="class")
    def sdf(self, spark, pdf):
        return spark.createDataFrame(pdf)

    def _full_rate(self, b):
        return {j: 1.0 for j in range(b)}

    def test_full_rate_matches_pandas_reference(self, sdf, pdf):
        """At rate 1.0 the job must equal a driver-side reference pass."""
        bounds = {j: BOUNDS for j in range(4)}
        got = sample_region_moments(sdf, "v", "block", self._full_rate(4), bounds)
        for j in range(4):
            vals = pdf.loc[pdf["block"] == j, "v"]
            s_vals = vals[(vals > BOUNDS.s_lower) & (vals < BOUNDS.s_upper)]
            l_vals = vals[(vals > BOUNDS.l_lower) & (vals < BOUNDS.l_upper)]
            want_s = RegionMoments.from_values(s_vals.tolist())
            want_l = RegionMoments.from_values(l_vals.tolist())
            m_s, m_l = got[j]
            assert m_s.n == want_s.n and m_l.n == want_l.n
            assert m_s.s1 == pytest.approx(want_s.s1, rel=1e-9)
            assert m_s.s2 == pytest.approx(want_s.s2, rel=1e-9)

    def test_moment_means_vs_duckdb_oracle(self, spark, sdf, pdf):
        """Oracle diff of the S/L aggregation (as means, which are
        magnitude-stable under float reordering)."""
        v = F.col("v")
        region = (
            F.when(v <= BOUNDS.s_lower, "TS")
            .when(v < BOUNDS.s_upper, "S")
            .when(v <= BOUNDS.l_lower, "N")
            .when(v < BOUNDS.l_upper, "L")
            .otherwise("TL")
        )
        spark_df = (
            sdf.withColumn("region", region)
            .filter(F.col("region").isin("S", "L"))
            .groupBy("block", "region")
            .agg(
                F.count("*").alias("n"),
                F.avg(v).alias("m1"),
                F.avg(v * v).alias("m2"),
            )
        )
        sql = f"""
            SELECT block, region, COUNT(*) AS n,
                   AVG(v) AS m1, AVG(v*v) AS m2
            FROM (
              SELECT block, v,
                     CASE WHEN v <= {BOUNDS.s_lower} THEN 'TS'
                          WHEN v <  {BOUNDS.s_upper} THEN 'S'
                          WHEN v <= {BOUNDS.l_lower} THEN 'N'
                          WHEN v <  {BOUNDS.l_upper} THEN 'L'
                          ELSE 'TL' END AS region
              FROM data
            ) WHERE region IN ('S','L')
            GROUP BY block, region
        """
        assert_equivalent(spark_df, sql, data=pdf)

    def test_sampling_rate_roughly_respected(self, sdf):
        bounds = {j: BOUNDS for j in range(4)}
        got = sample_region_moments(
            sdf, "v", "block", {j: 0.5 for j in range(4)}, bounds, seed=5
        )
        full = sample_region_moments(sdf, "v", "block", self._full_rate(4), bounds)
        n_half = sum(s.n + l.n for s, l in got.values())
        n_full = sum(s.n + l.n for s, l in full.values())
        assert 0.4 < n_half / n_full < 0.6

    def test_seed_determinism(self, sdf):
        bounds = {j: BOUNDS for j in range(4)}
        fr = {j: 0.3 for j in range(4)}
        a = sample_region_moments(sdf, "v", "block", fr, bounds, seed=9)
        b = sample_region_moments(sdf, "v", "block", fr, bounds, seed=9)
        assert a == b

    def test_per_block_bounds(self, spark):
        """Non-iid mode: each block classified by its own boundaries."""
        pdf = pd.concat(
            [
                blocked_normal_pdf(n=4_000, b=1, mu=50.0, sigma=10.0, seed=1),
                blocked_normal_pdf(n=4_000, b=1, mu=150.0, sigma=30.0, seed=2).assign(
                    block=1
                ),
            ]
        )
        sdf = spark.createDataFrame(pdf)
        bounds = {
            0: DataBoundaries(50.0, 10.0),
            1: DataBoundaries(150.0, 30.0),
        }
        got = sample_region_moments(sdf, "v", "block", {0: 1.0, 1: 1.0}, bounds)
        for j, (mu, sig) in ((0, (50.0, 10.0)), (1, (150.0, 30.0))):
            m_s, m_l = got[j]
            assert m_s.n > 0 and m_l.n > 0
            # S and L means must sit inside their bands.
            assert mu - 2 * sig < m_s.mean < mu - 0.5 * sig
            assert mu + 0.5 * sig < m_l.mean < mu + 2 * sig

    def test_fraction_clipping(self, sdf):
        """Fractions outside [0,1] are clipped, not rejected (rate·factor
        can exceed 1 when M is small relative to m)."""
        bounds = {j: BOUNDS for j in range(4)}
        got = sample_region_moments(
            sdf, "v", "block", {j: 1.7 for j in range(4)}, bounds
        )
        full = sample_region_moments(
            sdf, "v", "block", {j: 1.0 for j in range(4)}, bounds
        )
        assert got == full


def _spark_jobs(spark, group, fn) -> int:
    """The number of Spark jobs ``fn()`` runs."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc._jsc.clearJobGroup()
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


class TestPlans:
    """Phase 1 runs on literals when every block shares its boundaries
    and fraction (iid), and joins a per-block bounds table otherwise."""

    SHARED = {j: BOUNDS for j in range(4)}
    #: Adds different bounds for a block the data does not hold: forces
    #: the per-block plan without changing any draw.
    PER_BLOCK = SHARED | {99: DataBoundaries(sketch0=0.0, sigma=1.0)}
    FRACTIONS = {j: 0.3 for j in range(4)}

    @pytest.fixture(scope="class")
    def sdf(self, spark):
        """Values in (75, 125), blocks interleaved over 4 partitions.

        Built on ``spark.range``, not as a local relation: Spark's
        optimizer evaluates a sampling filter over a local relation on
        the driver, as one partition, so there the join-free shared plan
        draws other rows than the per-block plan.
        """
        return spark.range(0, 20_000, numPartitions=4).select(
            (F.col("id") % 4).alias("block"), (100 + 25 * F.sin("id")).alias("v")
        )

    def _moments(self, sdf, bounds):
        return sample_region_moments(sdf, "v", "block", self.FRACTIONS, bounds, seed=4)

    def test_plans_agree_bit_for_bit(self, sdf):
        shared = self._moments(sdf, self.SHARED)
        assert set(shared) == set(range(4))
        assert shared == self._moments(sdf, self.PER_BLOCK)

    def test_shared_plan_needs_no_join_job(self, spark, sdf):
        n_shared = _spark_jobs(spark, "shared", lambda: self._moments(sdf, self.SHARED))
        n_per_block = _spark_jobs(
            spark, "per-block", lambda: self._moments(sdf, self.PER_BLOCK)
        )
        assert (n_shared, n_per_block) == (2, 3)

    @pytest.mark.parametrize(
        "bounds",
        [
            {None: BOUNDS, 1: BOUNDS, 2: BOUNDS},
            {None: BOUNDS, 1: DataBoundaries(sketch0=90.0, sigma=25.0), 2: BOUNDS},
        ],
        ids=["shared", "per-block"],
    )
    def test_null_block_key_is_a_block(self, sdf, bounds):
        """Rows with a null block key form block ``None``, as
        ``compute_block_sizes`` and the pilots count them."""
        nulled = sdf.withColumn(
            "block", F.when(F.col("block") != 0, F.col("block"))
        )
        got = sample_region_moments(
            nulled, "v", "block", {b: 0.5 for b in bounds}, bounds, seed=4
        )
        assert set(got) == {None, 1, 2}
        m_s, m_l = got[None]
        assert m_s.n > 0 and m_l.n > 0


class TestSampledMoments:
    @pytest.fixture(scope="class")
    def pdf(self):
        return blocked_normal_pdf(n=20_000, b=4, seed=22)

    @pytest.fixture(scope="class")
    def sdf(self, spark, pdf):
        return spark.createDataFrame(pdf)

    def test_full_rate_is_every_value(self, sdf, pdf):
        want = RegionMoments.from_values(pdf["v"].tolist())
        got = sampled_moments(sdf, "v", 1.0, seed=3)[()]
        assert got.n == want.n
        assert got.s1 == pytest.approx(want.s1, rel=1e-9)
        assert got.s2 == pytest.approx(want.s2, rel=1e-9)

    def test_column_fraction_per_group(self, sdf):
        """A column fraction gives each row its own rate: 0 drops a
        block, above 1 keeps all of it."""
        frac = F.when(F.col("block") == 0, 0.0).otherwise(1.5)
        got = sampled_moments(sdf, "v", frac, seed=3, by=("block",))
        full = sampled_moments(sdf, "v", 1.0, seed=3, by=("block",))
        assert set(got) == {(1,), (2,), (3,)}
        assert all(got[k] == full[k] for k in got)

    def test_empty_global_sample_has_key(self, sdf):
        got = sampled_moments(sdf.where(F.col("v") > 1e9), "v", 0.5, seed=3)
        assert got == {(): RegionMoments.empty()}


class TestLargeMean:
    """N(1e9, 20²) in 4 blocks: the Spark aggregate and the σ-pilot built
    on it keep σ exact where power sums would lose it to cancellation."""

    @pytest.fixture(scope="class")
    def pdf(self):
        return blocked_normal_pdf(n=200_000, b=4, mu=1e9, sigma=20.0, seed=3)

    @pytest.fixture(scope="class")
    def sdf(self, spark, pdf):
        return spark.createDataFrame(pdf)

    def test_block_std_matches_pandas(self, sdf, pdf):
        got = sampled_moments(sdf, "v", 1.0, 0, by=("block",))
        want = pdf.groupby("block")["v"].std()
        assert {k for (k,) in got} == set(want.index)
        for (blk,), mo in got.items():
            assert mo.std == pytest.approx(want[blk], rel=1e-6)

    def test_sigma_pilot(self, sdf):
        pre = pre_estimate(sdf, "v", "block", ISLAConfig(e=0.5), seed=1)
        assert pre.sigma == pytest.approx(20.0, rel=0.1)


SAMPLERS = {"sample", "sampleBy", "rand"}


def _function_lines(tree: ast.AST, name: str) -> set[int]:
    """The source lines of the function ``name`` defined in ``tree``."""
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
        for line in range(node.lineno, node.end_lineno + 1)
    }


def test_row_uniform_is_the_only_sampler():
    """Every sampled Spark job draws through ``row_uniform``: no other
    ``sample``/``sampleBy``/``rand`` call in the package (the synthetic
    data generators draw their values with ``rand`` and are exempt)."""
    pkg = Path(repro.__file__).parent
    inside, outside = [], []
    for path in sorted(pkg.rglob("*.py")):
        if path.name == "synth_data.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = _function_lines(tree, "row_uniform")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in SAMPLERS:
                where = f"{path.relative_to(pkg)}:{node.lineno}"
                (inside if node.lineno in allowed else outside).append(where)
    assert outside == []
    assert [w.split(":")[0] for w in inside] == ["core/moments.py"]


def _is_aggregate(name: str) -> bool:
    return name in {"avg", "mean", "sum", "count"} or name.startswith(("stddev", "var"))


def test_sampled_moments_is_the_only_aggregate():
    """Every sampled estimator reads the one moments record: no
    ``pyspark.sql.functions`` aggregate is called in ``core`` or
    ``baselines`` outside ``sampled_moments``. A grouped ``.count()``,
    as the block-size job uses, is not a ``functions`` call."""
    pkg = Path(repro.__file__).parent
    inside, outside = [], []
    for path in sorted([*pkg.glob("core/*.py"), *pkg.glob("baselines/*.py")]):
        tree = ast.parse(path.read_text())
        modules, names = {"pyspark.sql.functions"}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "pyspark.sql":
                modules |= {a.asname or a.name for a in node.names if a.name == "functions"}
            elif isinstance(node, ast.ImportFrom) and node.module == "pyspark.sql.functions":
                names |= {a.asname or a.name for a in node.names if _is_aggregate(a.name)}
            elif isinstance(node, ast.Import):
                modules |= {
                    a.asname for a in node.names
                    if a.name == "pyspark.sql.functions" and a.asname
                }
        allowed = _function_lines(tree, "sampled_moments")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and ast.unparse(f.value) in modules
                and _is_aggregate(f.attr)
            ) or (isinstance(f, ast.Name) and f.id in names):
                where = f"{path.relative_to(pkg)}:{node.lineno}"
                (inside if node.lineno in allowed else outside).append(where)
    assert outside == []
    assert {w.split(":")[0] for w in inside} == {"core/moments.py"}
