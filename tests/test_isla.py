"""End-to-end ISLA integration tests (Spark)."""
import math

import pytest
from pyspark.sql import functions as F

from repro.baselines import stratified_avg, uniform_avg
from repro.core import ISLAConfig, isla_avg
from repro.core.isla import summarize
from repro.synth_data import (
    blocked_exponential,
    blocked_noniid_normal,
    blocked_normal,
    blocked_uniform,
    round_robin_sizes,
)
from tests.oracle import assert_equivalent, blocked_normal_pdf

N, B = 120_000, 10
CFG = ISLAConfig(e=0.5)


def exact_avg(df, value_col: str) -> float:
    """Ground-truth AVG by full scan (the paper's golden truth)."""
    return df.agg(F.avg(value_col)).first()[0]


@pytest.fixture(scope="module")
def normal_df(spark):
    df = blocked_normal(spark, n=N, b=B, seed=2024).cache()
    df.count()
    yield df
    df.unpersist()


class TestSummarize:
    def test_weighted_mean(self):
        got = summarize({0: 10.0, 1: 20.0}, {0: 1, 1: 3})
        assert got == pytest.approx(17.5)

    def test_single_block(self):
        assert summarize({0: 42.0}, {0: 99}) == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize({0: 1.0}, {0: 0})

    def test_vs_duckdb_oracle(self, spark):
        """The Summarization formula Σ avg_j·|B_j|/M ≡ SQL weighted avg."""
        import pandas as pd

        pdf = pd.DataFrame(
            {"block": [0, 1, 2], "avg": [10.0, 12.0, 14.0], "size": [5, 10, 5]}
        )
        sdf = spark.createDataFrame(pdf)
        spark_df = sdf.agg(
            (F.sum(F.col("avg") * F.col("size")) / F.sum("size")).alias("final")
        )
        assert_equivalent(
            spark_df,
            "SELECT SUM(avg*size)/SUM(size) AS final FROM parts",
            parts=pdf,
        )


class TestNormalData:
    def test_answer_within_precision(self, normal_df):
        res = isla_avg(
            normal_df, "v", "block", CFG,
            block_sizes=round_robin_sizes(N, B), seed=7,
        )
        assert abs(res.answer - 100.0) < CFG.e

    def test_diagnostics_complete(self, normal_df):
        res = isla_avg(
            normal_df, "v", "block", CFG,
            block_sizes=round_robin_sizes(N, B), seed=7,
        )
        assert set(res.blocks) == set(range(B))
        assert set(res.partials) == set(range(B))
        for a in res.blocks.values():
            assert a.case in (1, 2, 3, 4, 5)
        assert res.samples_participating > 0
        assert 0 < res.rate_used <= 1.0

    def test_partials_near_mu(self, normal_df):
        res = isla_avg(
            normal_df, "v", "block", CFG,
            block_sizes=round_robin_sizes(N, B), seed=7,
        )
        for p in res.partials.values():
            # Each partial is clamped to sketch0 ± t_e·e and modulated
            # toward μ; allow the clamp radius plus sketch error.
            assert abs(p - 100.0) < 2 * CFG.t_e * CFG.e

    def test_rate_factor_third_still_within_precision(self, normal_df):
        res = isla_avg(
            normal_df, "v", "block", CFG,
            block_sizes=round_robin_sizes(N, B),
            rate_factor=1.0 / 3.0, seed=11,
        )
        assert abs(res.answer - 100.0) < CFG.e
        assert res.rate_used == pytest.approx(res.pre.rate / 3.0)

    def test_seed_determinism(self, normal_df):
        kw = dict(block_sizes=round_robin_sizes(N, B), seed=13)
        a = isla_avg(normal_df, "v", "block", CFG, **kw)
        b = isla_avg(normal_df, "v", "block", CFG, **kw)
        assert a.answer == b.answer
        assert a.partials == b.partials

    def test_block_sizes_computed_when_absent(self, normal_df):
        res = isla_avg(normal_df, "v", "block", CFG, seed=7)
        assert res.pre.block_sizes == round_robin_sizes(N, B)


class TestNegativeData:
    def test_shift_handles_negative_values(self, spark):
        """Footnote 1's positivity shift is not needed: the answer is
        translation-invariant, so negative data is estimated as is."""
        df = blocked_normal(spark, n=N, b=B, mu=-50.0, sigma=10.0, seed=5).cache()
        try:
            res = isla_avg(
                df, "v", "block", ISLAConfig(e=0.5),
                block_sizes=round_robin_sizes(N, B), seed=5,
            )
            assert abs(res.answer - (-50.0)) < 0.5
        finally:
            df.unpersist()


class TestOtherDistributions:
    def test_exponential_close_to_mean(self, spark):
        df = blocked_exponential(spark, n=N, b=B, gamma=0.1, seed=6).cache()
        try:
            truth = exact_avg(df, "v")
            # The paper's Table VI setting: e = 0.1 — the §VII-B sketch
            # confidence clamp then bounds the asymmetric-distribution
            # error at ≈ t_e·e + sketch noise (≈ −5% at γ=0.1).
            res = isla_avg(
                df, "v", "block", ISLAConfig(e=0.1),
                block_sizes=round_robin_sizes(N, B), seed=6,
            )
            assert abs(res.answer - truth) / truth < 0.08
        finally:
            df.unpersist()

    def test_uniform_close_to_mean(self, spark):
        df = blocked_uniform(spark, n=N, b=B, seed=8).cache()
        try:
            res = isla_avg(
                df, "v", "block", ISLAConfig(e=0.5),
                block_sizes=round_robin_sizes(N, B), seed=8,
            )
            assert abs(res.answer - 100.0) < 2.0
        finally:
            df.unpersist()


class TestNonIID:
    def test_noniid_mode(self, spark):
        df = blocked_noniid_normal(spark, n_per_block=20_000, seed=9).cache()
        try:
            sizes = {i: 20_000 for i in range(5)}
            res = isla_avg(
                df, "v", "block", ISLAConfig(e=0.5),
                non_iid=True, block_sizes=sizes, seed=9,
            )
            assert abs(res.answer - 100.0) < 1.5
            # Per-block partials must track the per-block means, not the
            # global mean — that is what the §VII-C extension buys.
            mus = [100, 50, 80, 150, 120]
            for i, mu in enumerate(mus):
                assert abs(res.partials[i] - mu) < 0.1 * mu + 3.0
        finally:
            df.unpersist()

    def test_iid_mode_on_noniid_data_is_worse_per_block(self, spark):
        """Without the extension, global boundaries misclassify whole
        blocks (e.g. the N(50,10²) block is all 'TS') — partials collapse
        to sketch0."""
        df = blocked_noniid_normal(spark, n_per_block=20_000, seed=10).cache()
        try:
            sizes = {i: 20_000 for i in range(5)}
            res = isla_avg(
                df, "v", "block", ISLAConfig(e=0.5),
                non_iid=False, block_sizes=sizes, seed=10,
            )
            err_block1 = abs(res.partials[1] - 50.0)
            assert err_block1 > 10.0
        finally:
            df.unpersist()


class TestZeroSizeBlocks:
    """A block of size 0 in the metadata (``round_robin_sizes(n, b)``
    gives some when n < b) holds no value: it carries no weight, gets no
    partial and leaves the answer as it is without it."""

    @pytest.mark.parametrize("non_iid", [False, True], ids=["iid", "non_iid"])
    def test_zero_size_block_changes_nothing(self, normal_df, non_iid):
        sizes = round_robin_sizes(N, B)
        got, want = (
            isla_avg(
                normal_df, "v", "block", CFG,
                non_iid=non_iid, block_sizes=s, seed=3,
            )
            for s in ({**sizes, 99: 0}, sizes)
        )
        assert got.answer == want.answer
        assert set(got.blocks) == set(sizes)

    def test_negative_size_rejected(self, normal_df):
        sizes = {**round_robin_sizes(N, B), 0: -1}
        with pytest.raises(ValueError, match="non-negative"):
            isla_avg(normal_df, "v", "block", CFG, block_sizes=sizes)


class TestRateFactor:
    @pytest.mark.parametrize("rate_factor", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_rate_factor_rejected(self, normal_df, rate_factor):
        """A factor ≤ 0 samples no S/L rows, so every block would be Case 5;
        NaN samples every row, since min(1.0, nan) is 1.0."""
        with pytest.raises(ValueError, match="rate_factor"):
            isla_avg(normal_df, "v", "block", CFG, rate_factor=rate_factor)


class TestNulls:
    def test_null_values_carry_no_weight(self, spark):
        """SQL AVG semantics: a block whose values are mostly null weighs
        by its non-null values, not by its rows. Block 3 is shifted by
        +100 and ~90 % null; weighting it by rows pulls the answer ~21
        too high."""
        v = F.col("v")
        shifted = F.when(F.col("block") == 3, v + 100.0).otherwise(v)
        nulled = (F.col("block") == 3) & (F.rand(7919) < 0.9)
        df = (
            blocked_normal(spark, n=400_000, b=4, seed=31)
            .select("block", F.when(nulled, None).otherwise(shifted).alias("v"))
            .cache()
        )
        try:
            e = 0.5
            res = isla_avg(df, "v", "block", ISLAConfig(e=e), non_iid=True, seed=5)
            assert abs(res.answer - exact_avg(df, "v")) < 2 * e
        finally:
            df.unpersist()



class TestEmptyInput:
    """No non-null value to average, in an empty frame or an all-null
    column: ISLA and the sampled baselines raise, they do not answer."""

    ROWS = {"empty_frame": 0, "all_null_column": 1_000}
    METHODS = {
        "isla": (lambda df: isla_avg(df, "v", "block", CFG), "input has no blocks"),
        "isla_non_iid": (
            lambda df: isla_avg(df, "v", "block", CFG, non_iid=True),
            "input has no blocks",
        ),
        "isla_block_sizes": (
            lambda df: isla_avg(df, "v", "block", CFG, block_sizes={0: 500, 1: 500}),
            "pilot sample is empty",
        ),
        "uniform": (
            lambda df: uniform_avg(df, "v", 0.5),
            "uniform sample was empty — rate too small",
        ),
        "stratified": (
            lambda df: stratified_avg(df, "v", "block", 0.5, {0: 500, 1: 500}),
            "stratified sample was empty — rate too small",
        ),
    }

    @pytest.mark.parametrize("rows", list(ROWS))
    @pytest.mark.parametrize("method", list(METHODS))
    def test_no_value_is_an_error(self, spark, method, rows):
        df = spark.range(self.ROWS[rows]).select(
            (F.col("id") % 2).alias("block"), F.lit(None).cast("double").alias("v")
        )
        run, message = self.METHODS[method]
        with pytest.raises(ValueError, match=message):
            run(df)


class TestConstantColumn:
    def test_empty_sketch_pilot_falls_back(self, spark):
        """σ̂ = 0 makes m_sketch 1, so the sketch pilot samples at 1/M
        and often comes back empty; sketch0 then falls back to the
        σ-pilot mean instead of raising, and the answer is the constant."""
        df = (
            spark.range(200_000)
            .select((F.col("id") % 10).alias("block"), F.lit(7.0).alias("v"))
            .cache()
        )
        try:
            got = [isla_avg(df, "v", "block", CFG, seed=s).answer for s in range(20)]
            assert got == [7.0] * 20
        finally:
            df.unpersist()

class TestGroundTruthOracle:
    def test_exact_avg_vs_duckdb(self, spark):
        pdf = blocked_normal_pdf(n=30_000, b=3, seed=17)
        sdf = spark.createDataFrame(pdf)
        spark_df = sdf.agg(F.avg("v").alias("avg_v"))
        assert_equivalent(spark_df, "SELECT AVG(v) AS avg_v FROM data", data=pdf)
