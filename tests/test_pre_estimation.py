"""Pre-estimation module tests (§III): σ̂, sketch0, rates, blev."""
import math

import pytest
from pyspark.sql import functions as F

from repro.core.config import ISLAConfig
from repro.core.pre_estimation import (
    compute_block_sizes,
    pre_estimate,
)
from repro.oracle import assert_equivalent
from repro.synth_data import blocked_normal_pdf, round_robin_sizes

CFG = ISLAConfig(e=0.5)  # keeps the test-scale rate < 1


@pytest.fixture(scope="module")
def normal_sdf(spark):
    pdf = blocked_normal_pdf(n=60_000, b=6, seed=77)
    return spark.createDataFrame(pdf).cache()


@pytest.fixture(scope="module")
def pre(normal_sdf):
    return pre_estimate(
        normal_sdf, "v", "block", CFG,
        block_sizes=round_robin_sizes(60_000, 6), seed=1,
    )


class TestBlockSizes:
    def test_compute_block_sizes_matches_metadata(self, normal_sdf):
        got = compute_block_sizes(normal_sdf, "block")
        assert got == round_robin_sizes(60_000, 6)

    def test_block_sizes_vs_duckdb_oracle(self, spark, normal_sdf):
        pdf = normal_sdf.toPandas()
        counts = normal_sdf.groupBy("block").agg(F.count("*").alias("cnt"))
        assert_equivalent(
            counts, "SELECT block, COUNT(*) AS cnt FROM data GROUP BY block",
            data=pdf,
        )


class TestSigmaAndSketch:
    def test_sigma_close_to_truth(self, pre):
        assert pre.sigma == pytest.approx(20.0, rel=0.15)

    def test_sketch0_within_relaxed_precision(self, pre):
        # sketch0 targets precision t_e·e with confidence β; allow a
        # generous 2× the relaxed radius to keep the test non-flaky.
        assert abs(pre.sketch0 - 100.0) < 2 * CFG.t_e * CFG.e

    def test_rate_is_m_over_M(self, pre):
        assert pre.M == 60_000
        assert pre.rate == pytest.approx(min(1.0, pre.m / pre.M))

    def test_m_matches_eq1_with_estimated_sigma(self, pre):
        want = CFG.sample_size(pre.sigma)
        assert pre.m == want

    def test_sketch_sample_smaller_than_main(self, pre):
        assert pre.m_sketch < pre.m
        assert pre.m_sketch == pytest.approx(pre.m / CFG.t_e**2, rel=0.02)

    def test_per_block_estimates_present(self, pre):
        assert set(pre.sketch_by_block) == set(range(6))
        assert set(pre.sigma_by_block) == set(range(6))
        for blk in range(6):
            assert abs(pre.sketch_by_block[blk] - 100.0) < 5.0
            assert pre.sigma_by_block[blk] == pytest.approx(20.0, rel=0.3)


class TestFractions:
    def test_uniform_fractions(self, pre):
        fr = pre.uniform_fractions(0.25)
        assert set(fr) == set(range(6))
        assert all(f == 0.25 for f in fr.values())

    def test_uniform_fractions_capped_at_one(self, pre):
        assert all(f == 1.0 for f in pre.uniform_fractions(3.0).values())

    def test_blev_fractions_favor_high_variance_blocks(self, spark):
        import pandas as pd

        parts = []
        for j, (mu, sig) in enumerate([(100, 5), (100, 50)]):
            p = blocked_normal_pdf(n=20_000, b=1, mu=mu, sigma=sig, seed=j)
            parts.append(p.assign(block=j))
        pdf = pd.concat(parts)
        sdf = spark.createDataFrame(pdf)
        pre2 = pre_estimate(
            sdf, "v", "block", ISLAConfig(e=1.0),
            block_sizes={0: 20_000, 1: 20_000}, seed=3,
        )
        fr = pre2.blev_fractions()
        assert fr[1] > fr[0]  # σ=50 block sampled more than σ=5 block

    def test_blev_fractions_scale_with_rate_factor(self, pre):
        f1 = pre.blev_fractions(1.0)
        f2 = pre.blev_fractions(0.5)
        for blk in f1:
            if f1[blk] < 1.0:
                assert f2[blk] == pytest.approx(f1[blk] / 2)


class TestErrors:
    def test_empty_blocks_rejected(self, spark, normal_sdf):
        with pytest.raises(ValueError):
            pre_estimate(normal_sdf, "v", "block", CFG, block_sizes={})
