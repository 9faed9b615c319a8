"""Baseline estimator tests (US/STS/MV/MVB) with DuckDB oracle anchors."""
import pytest
from pyspark.sql import functions as F

from repro.baselines import mv_avg, mvb_avg, stratified_avg, uniform_avg
from repro.baselines.measure_biased import mv_block_avgs, mvb_block_avgs
from repro.core.boundaries import DataBoundaries
from repro.synth_data import round_robin_sizes
from tests.oracle import assert_equivalent, blocked_normal_pdf, blocked_uniform_pdf

BOUNDS = DataBoundaries(sketch0=100.0, sigma=20.0)


@pytest.fixture(scope="module")
def pdf():
    return blocked_normal_pdf(n=60_000, b=6, seed=404)


@pytest.fixture(scope="module")
def sdf(spark, pdf):
    df = spark.createDataFrame(pdf).cache()
    df.count()
    yield df
    df.unpersist()


class TestUniform:
    def test_full_rate_equals_exact_avg(self, sdf, pdf):
        assert uniform_avg(sdf, "v", 1.0) == pytest.approx(pdf["v"].mean())

    def test_full_rate_vs_duckdb_oracle(self, spark, sdf, pdf):
        spark_df = sdf.agg(F.avg("v").alias("a"))
        assert_equivalent(spark_df, "SELECT AVG(v) AS a FROM data", data=pdf)
        # and the baseline returns exactly that value at rate 1.0
        assert uniform_avg(sdf, "v", 1.0) == pytest.approx(
            spark_df.first()["a"]
        )

    def test_sampled_close_to_truth(self, sdf):
        got = uniform_avg(sdf, "v", 0.2, seed=1)
        assert got == pytest.approx(100.0, abs=1.0)

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5])
    def test_invalid_rate(self, sdf, rate):
        with pytest.raises(ValueError):
            uniform_avg(sdf, "v", rate)


class TestStratified:
    def test_full_rate_vs_duckdb_weighted(self, spark, sdf, pdf):
        """At rate 1.0 STS is the exact block-weighted mean = exact AVG
        (blocks partition the data)."""
        sizes = round_robin_sizes(60_000, 6)
        got = stratified_avg(sdf, "v", "block", 1.0, sizes)
        assert got == pytest.approx(pdf["v"].mean())

    def test_block_means_vs_duckdb_oracle(self, spark, sdf, pdf):
        spark_df = sdf.groupBy("block").agg(F.avg("v").alias("m"))
        assert_equivalent(
            spark_df, "SELECT block, AVG(v) AS m FROM data GROUP BY block",
            data=pdf,
        )

    def test_sampled_close_to_truth(self, sdf):
        sizes = round_robin_sizes(60_000, 6)
        got = stratified_avg(sdf, "v", "block", 0.2, sizes, seed=2)
        assert got == pytest.approx(100.0, abs=1.0)

    def test_invalid_rate(self, sdf):
        with pytest.raises(ValueError):
            stratified_avg(sdf, "v", "block", 0.0, {0: 1})


class TestMV:
    def test_full_sample_closed_form_vs_duckdb(self, spark, sdf, pdf):
        """MV at rate 1.0 ≡ SUM(v²)/SUM(v) — oracle-diffed."""
        spark_df = sdf.agg(
            (F.sum(F.col("v") * F.col("v")) / F.sum("v")).alias("mv")
        )
        assert_equivalent(
            spark_df, "SELECT SUM(v*v)/SUM(v) AS mv FROM data", data=pdf
        )
        assert mv_avg(sdf, "v", 1.0) == pytest.approx(
            spark_df.first()["mv"]
        )

    def test_normal_bias_is_sigma2_over_mu(self, sdf):
        """E[MV] = (μ² + σ²)/μ = 104 on N(100, 20²) — the Table III row."""
        got = mv_avg(sdf, "v", 0.5, seed=3)
        assert got == pytest.approx(104.0, abs=0.8)

    def test_uniform_bias_matches_table7(self, spark):
        """On U[1,199]: E[MV] = (mean² + var)/mean ≈ 132.7 (Table VII)."""
        updf = blocked_uniform_pdf(n=60_000, b=6, seed=5)
        usdf = spark.createDataFrame(updf)
        got = mv_avg(usdf, "v", 1.0)
        mean, var = updf["v"].mean(), updf["v"].var(ddof=0)
        assert got == pytest.approx((mean**2 + var) / mean, rel=1e-6)
        assert got == pytest.approx(132.7, abs=1.5)

    def test_block_avgs_cover_blocks(self, sdf):
        got = mv_block_avgs(sdf, "v", "block", 0.5, seed=4)
        assert set(got) == set(range(6))
        for v in got.values():
            assert v == pytest.approx(104.0, abs=1.5)


class TestMVB:
    def test_full_sample_vs_duckdb_oracle(self, spark, sdf, pdf):
        """MVB at rate 1.0 ≡ the region-massed SQL — oracle-diffed
        against DuckDB computing Σ_g (n_g/m)·Σ_g v²/Σ_g v."""
        spark_got = mvb_avg(sdf, "v", 1.0, BOUNDS)
        import duckdb

        sql = f"""
            WITH tagged AS (
              SELECT v, CASE WHEN v <= {BOUNDS.s_lower} THEN 'TS'
                             WHEN v <  {BOUNDS.s_upper} THEN 'S'
                             WHEN v <= {BOUNDS.l_lower} THEN 'N'
                             WHEN v <  {BOUNDS.l_upper} THEN 'L'
                             ELSE 'TL' END AS region
              FROM data
            ),
            per_region AS (
              SELECT region, COUNT(*) AS n, SUM(v) AS s1, SUM(v*v) AS s2
              FROM tagged GROUP BY region
            )
            SELECT SUM((n * 1.0 / (SELECT COUNT(*) FROM data)) * s2 / s1) AS mvb
            FROM per_region WHERE s1 <> 0
        """
        con = duckdb.connect()
        try:
            con.register("data", pdf)
            want = con.execute(sql).fetchone()[0]
        finally:
            con.close()
        assert spark_got == pytest.approx(want, rel=1e-9)

    def test_mvb_less_biased_than_mv_on_normal(self, sdf):
        """Table III shape: |MVB − μ| ≪ |MV − μ| (≈0.5 vs ≈4)."""
        mv = mv_avg(sdf, "v", 0.5, seed=6)
        mvb = mvb_avg(sdf, "v", 0.5, BOUNDS, seed=6)
        assert abs(mvb - 100.0) < abs(mv - 100.0)
        assert mvb == pytest.approx(100.5, abs=0.5)

    def test_block_avgs_cover_blocks(self, sdf):
        got = mvb_block_avgs(sdf, "v", "block", 0.5, BOUNDS, seed=7)
        assert set(got) == set(range(6))
        for v in got.values():
            assert v == pytest.approx(100.5, abs=1.0)

    def test_invalid_rate(self, sdf):
        with pytest.raises(ValueError):
            mvb_avg(sdf, "v", -0.1, BOUNDS)


class TestNulls:
    """SQL AVG semantics: at rate 1.0 every baseline answers on a
    null-bearing frame exactly what it answers with the nulls dropped."""

    ESTIMATORS = {
        "uniform": lambda df: uniform_avg(df, "v", 1.0),
        "stratified": lambda df: stratified_avg(
            df, "v", "block", 1.0, round_robin_sizes(60_000, 6)
        ),
        "mv": lambda df: mv_avg(df, "v", 1.0),
        "mvb": lambda df: mvb_avg(df, "v", 1.0, BOUNDS),
        "mvb_block": lambda df: mvb_block_avgs(df, "v", "block", 1.0, BOUNDS),
    }

    KEEP = {
        "half_null": lambda: F.xxhash64("v") % 2 == 0,
        "block3_all_null": lambda: F.col("block") != 3,
    }

    @pytest.mark.parametrize("keep", list(KEEP))
    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_nulls_equal_nulls_dropped(self, sdf, name, keep):
        nulled = sdf.select("block", F.when(self.KEEP[keep](), F.col("v")).alias("v"))
        dropped = nulled.where(F.col("v").isNotNull())
        est = self.ESTIMATORS[name]
        assert est(nulled) == pytest.approx(est(dropped), rel=1e-12)
