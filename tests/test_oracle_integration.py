"""Oracle-backed ground truths for the TPC-H efficiency workload and
the oracle helper's own contract."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.synth_data import lineitem
from tests.oracle import assert_equivalent


class TestLineitemGroundTruth:
    @pytest.fixture(scope="class")
    def li(self, spark):
        df = lineitem(spark, sf=0.01, seed=1300).cache()
        df.count()
        yield df
        df.unpersist()

    def test_avg_extendedprice_vs_duckdb(self, spark, li):
        spark_df = li.agg(F.avg("l_extendedprice").alias("avg_price"))
        assert_equivalent(
            spark_df,
            "SELECT AVG(l_extendedprice) AS avg_price FROM li",
            li=li,
        )

    def test_blocked_avg_vs_duckdb(self, spark, li):
        """The efficiency experiment's block layout (l_orderkey % 10)."""
        blocked = li.withColumn(
            "block", (F.col("l_orderkey") % 10).cast("int")
        )
        spark_df = blocked.groupBy("block").agg(
            F.avg("l_extendedprice").alias("avg_price"),
            F.count("*").alias("cnt"),
        )
        assert_equivalent(
            spark_df,
            """
            SELECT CAST(l_orderkey % 10 AS INT) AS block,
                   AVG(l_extendedprice) AS avg_price,
                   COUNT(*) AS cnt
            FROM li GROUP BY 1
            """,
            li=li,
        )


class TestOracleContract:
    def test_detects_wrong_result(self, spark):
        pdf = pd.DataFrame({"v": [1.0, 2.0, 3.0]})
        sdf = spark.createDataFrame(pdf)
        wrong = sdf.agg((F.avg("v") + 1).alias("a"))
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, "SELECT AVG(v) AS a FROM t", t=pdf)

    def test_detects_column_mismatch(self, spark):
        pdf = pd.DataFrame({"v": [1.0]})
        sdf = spark.createDataFrame(pdf)
        got = sdf.agg(F.avg("v").alias("x"))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(got, "SELECT AVG(v) AS y FROM t", t=pdf)
