"""Phase 1 and the shared sampler: streaming moments, the Spark jobs and
the one-sampler invariant.

The Spark job at rate 1.0 is deterministic, so its per-block/region
moments are oracle-diffed against DuckDB computing the same CASE +
GROUP BY aggregation over identical data.
"""
import ast
import math
from pathlib import Path

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

import repro
from repro.core.boundaries import DataBoundaries, Region
from repro.core.moments import RegionMoments, sample_region_moments, sampled_moments
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


SAMPLERS = {"sample", "sampleBy", "rand"}


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
        allowed = {
            line
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "row_uniform"
            for line in range(node.lineno, node.end_lineno + 1)
        }
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
