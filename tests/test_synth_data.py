"""Generator tests: schemas, determinism, distribution shapes."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.synth_data import (
    blocked_exponential,
    blocked_noniid_normal,
    blocked_normal,
    blocked_uniform,
    lineitem,
    round_robin_sizes,
    salary_like,
    tlc_like,
)
from tests.oracle import blocked_normal_pdf, blocked_uniform_pdf


class TestRoundRobinSizes:
    @pytest.mark.parametrize("n,b", [(10, 3), (100, 7), (1, 1), (5, 10)])
    def test_sizes_sum_to_n(self, n, b):
        sizes = round_robin_sizes(n, b)
        assert sum(sizes.values()) == n
        assert len(sizes) == b

    def test_matches_modulo_assignment(self):
        n, b = 1234, 10
        ids = np.arange(n) % b
        want = pd.Series(ids).value_counts().to_dict()
        assert round_robin_sizes(n, b) == {j: want[j] for j in range(b)}


class TestBlockedGenerators:
    @pytest.mark.parametrize(
        "gen,kwargs",
        [
            (blocked_normal, {}),
            (blocked_uniform, {}),
            (blocked_exponential, {"gamma": 0.1}),
        ],
    )
    def test_schema_and_count(self, spark, gen, kwargs):
        df = gen(spark, n=5_000, b=5, seed=1, **kwargs)
        assert df.columns == ["block", "v"]
        assert df.count() == 5_000
        blocks = {r["block"] for r in df.select("block").distinct().collect()}
        assert blocks == set(range(5))

    def test_normal_moments(self, spark):
        df = blocked_normal(spark, n=100_000, b=10, mu=100, sigma=20, seed=2)
        row = df.agg(F.avg("v").alias("m"), F.stddev_samp("v").alias("s")).first()
        assert row["m"] == pytest.approx(100.0, abs=0.5)
        assert row["s"] == pytest.approx(20.0, rel=0.02)

    def test_uniform_range_and_mean(self, spark):
        df = blocked_uniform(spark, n=50_000, b=5, lo=1.0, hi=199.0, seed=3)
        row = df.agg(
            F.min("v").alias("lo"), F.max("v").alias("hi"), F.avg("v").alias("m")
        ).first()
        assert row["lo"] >= 1.0 and row["hi"] <= 199.0
        assert row["m"] == pytest.approx(100.0, abs=1.5)

    @pytest.mark.parametrize("gamma", [0.05, 0.2])
    def test_exponential_mean_is_inverse_gamma(self, spark, gamma):
        df = blocked_exponential(spark, n=100_000, b=5, gamma=gamma, seed=4)
        row = df.agg(F.avg("v").alias("m"), F.min("v").alias("lo")).first()
        assert row["lo"] > 0
        assert row["m"] == pytest.approx(1.0 / gamma, rel=0.05)

    def test_noniid_block_means(self, spark):
        df = blocked_noniid_normal(spark, n_per_block=20_000, seed=5)
        rows = df.groupBy("block").agg(F.avg("v").alias("m")).collect()
        means = {r["block"]: r["m"] for r in rows}
        for i, mu in enumerate([100, 50, 80, 150, 120]):
            assert means[i] == pytest.approx(mu, rel=0.02)

    @pytest.mark.parametrize("n,b", [(0, 5), (10, 0)])
    def test_invalid_sizes_rejected(self, spark, n, b):
        with pytest.raises(ValueError):
            blocked_normal(spark, n=n, b=b)

    def test_invalid_gamma_rejected(self, spark):
        with pytest.raises(ValueError):
            blocked_exponential(spark, n=10, b=2, gamma=0.0)


class TestPandasTwins:
    @pytest.mark.parametrize(
        "gen,kwargs",
        [
            (blocked_normal_pdf, {"mu": 100, "sigma": 20}),
            (blocked_uniform_pdf, {"lo": 1, "hi": 199}),
        ],
    )
    def test_deterministic_in_seed(self, gen, kwargs):
        a = gen(n=1_000, b=4, seed=9, **kwargs)
        b_ = gen(n=1_000, b=4, seed=9, **kwargs)
        pd.testing.assert_frame_equal(a, b_)

    def test_normal_pdf_moments(self):
        pdf = blocked_normal_pdf(n=50_000, b=5, seed=10)
        assert pdf["v"].mean() == pytest.approx(100.0, abs=0.5)
        assert pdf["v"].std() == pytest.approx(20.0, rel=0.03)

    def test_block_layout_matches_spark_generator(self):
        pdf = blocked_normal_pdf(n=97, b=10, seed=11)
        assert pdf["block"].value_counts().to_dict() == {
            j: c for j, c in round_robin_sizes(97, 10).items() if c
        }


class TestRealDataSubstitutes:
    def test_salary_like_shape(self, spark):
        df = salary_like(spark, n=30_000, b=5, seed=12)
        row = df.agg(
            F.avg("v").alias("m"),
            F.avg((F.col("v") == 0).cast("int")).alias("zero_frac"),
            F.max("v").alias("hi"),
        ).first()
        assert 0.5 < row["zero_frac"] < 0.6      # zero-inflation
        assert row["m"] > 0
        assert row["hi"] > 5 * row["m"]          # heavy right tail

    def test_tlc_like_shape(self, spark):
        df = tlc_like(spark, n=50_000, b=5, seed=13)
        stats = df.agg(
            F.avg("v").alias("m"), F.stddev_samp("v").alias("s"),
            F.min("v").alias("lo"),
        ).first()
        assert stats["lo"] >= 1.0
        # Clustered extremes → std comparable to the mean (highly skewed).
        assert stats["s"] > 0.8 * stats["m"]


class TestProvidedTPCH:
    def test_lineitem_schema(self, spark):
        df = lineitem(spark, sf=0.001)
        assert "l_extendedprice" in df.columns
        assert df.count() == 6_000
