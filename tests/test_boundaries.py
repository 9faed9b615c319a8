"""Unit + Spark tests for the data boundaries and region classification."""
import pandas as pd
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.boundaries import DataBoundaries, Region, region_column_for
from tests.oracle import assert_equivalent, blocked_normal_pdf
from tests.paper_reference import classify

# The paper's Example 1 (§IV-B): sketch0=6.2, p1σ=1, p2σ=3 →
# S=(3.2, 5.2), L=(7.2, 9.2).
EX1 = DataBoundaries(sketch0=6.2, sigma=2.0, p1=0.5, p2=1.5)

# The §VIII default: sketch0=100, σ=20, p1=0.5, p2=2 → S=(60,90), L=(110,140).
DEFAULT = DataBoundaries(sketch0=100.0, sigma=20.0)


class TestEdges:
    def test_example1_edges(self):
        assert EX1.s_lower == pytest.approx(3.2)
        assert EX1.s_upper == pytest.approx(5.2)
        assert EX1.l_lower == pytest.approx(7.2)
        assert EX1.l_upper == pytest.approx(9.2)

    def test_default_edges(self):
        assert DEFAULT.s_lower == 60.0
        assert DEFAULT.s_upper == 90.0
        assert DEFAULT.l_lower == 110.0
        assert DEFAULT.l_upper == 140.0

    @pytest.mark.parametrize("kwargs", [
        {"sketch0": 0, "sigma": -1},
        {"sketch0": 0, "sigma": 1, "p1": 0},
        {"sketch0": 0, "sigma": 1, "p1": 2, "p2": 1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DataBoundaries(**kwargs)


class TestClassify:
    @pytest.mark.parametrize(
        "x,region",
        [
            # Paper Example 1: samples {2,3,4,5,6,7,8,15}; only 4, 5 (S)
            # and 8 (L) participate.
            (2.0, Region.TS),
            (3.0, Region.TS),
            (4.0, Region.S),
            (5.0, Region.S),
            (6.0, Region.N),
            (7.0, Region.N),
            (8.0, Region.L),
            (15.0, Region.TL),
        ],
    )
    def test_paper_example1(self, x, region):
        assert classify(EX1, x) == region

    @pytest.mark.parametrize(
        "x,region",
        [
            (-1e9, Region.TS),
            (60.0, Region.TS),     # TS is closed above: (−∞, sk−p2σ]
            (60.0001, Region.S),
            (89.9999, Region.S),
            (90.0, Region.N),      # N is closed: [sk−p1σ, sk+p1σ]
            (100.0, Region.N),
            (110.0, Region.N),
            (110.0001, Region.L),
            (139.9999, Region.L),
            (140.0, Region.TL),    # TL is closed below: [sk+p2σ, +∞)
            (1e9, Region.TL),
        ],
    )
    def test_default_edge_conventions(self, x, region):
        assert classify(DEFAULT, x) == region

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_every_value_gets_exactly_one_region(self, x):
        assert classify(DEFAULT, x) in set(Region)


class TestSparkClassifier:
    """The Spark Column classifier must agree with the Python one."""

    def test_matches_python_classifier(self, spark):
        import numpy as np

        vals = np.linspace(0, 200, 501).tolist() + [60.0, 90.0, 110.0, 140.0]
        pdf = pd.DataFrame({"v": vals})
        sdf = spark.createDataFrame(pdf)
        got = (
            sdf.withColumn("region", region_column_for(DEFAULT, F.col("v")))
            .toPandas()
            .sort_values("v")
        )
        for _, row in got.iterrows():
            assert row["region"] == classify(DEFAULT, row["v"]).value

    def test_region_counts_vs_duckdb_oracle(self, spark):
        pdf = blocked_normal_pdf(n=20_000, b=4, seed=11)
        sdf = spark.createDataFrame(pdf)
        counts = (
            sdf.withColumn("region", region_column_for(DEFAULT, F.col("v")))
            .groupBy("region")
            .agg(F.count("*").alias("cnt"))
        )
        sql = """
            SELECT CASE
                     WHEN v <= 60.0 THEN 'TS'
                     WHEN v < 90.0 THEN 'S'
                     WHEN v <= 110.0 THEN 'N'
                     WHEN v < 140.0 THEN 'L'
                     ELSE 'TL'
                   END AS region,
                   COUNT(*) AS cnt
            FROM data GROUP BY 1
        """
        assert_equivalent(counts, sql, data=pdf)

    def test_symmetric_regions_roughly_balanced_on_normal(self, spark):
        # With sketch0 = μ the S and L regions are symmetric → |S| ≈ |L|.
        pdf = blocked_normal_pdf(n=50_000, b=5, seed=3)
        sdf = spark.createDataFrame(pdf)
        counts = dict(
            sdf.withColumn("region", region_column_for(DEFAULT, F.col("v")))
            .groupBy("region")
            .count()
            .collect()
        )
        dev = counts["S"] / counts["L"]
        assert 0.95 < dev < 1.05
