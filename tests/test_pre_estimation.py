"""Pre-estimation module tests (§III): the one scan, σ̂, sketch0, rates,
blev."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.config import ISLAConfig
from repro.core.isla import isla_avg
from repro.core.moments import sampled_moments
from repro.core.pre_estimation import (
    DEEPEST_OCTAVE,
    PILOT_N,
    compute_block_sizes,
    octave_of,
    pre_estimate,
    sigma_pilot_octaves,
    sketch_pilot_octaves,
)
from repro.synth_data import round_robin_sizes
from tests.oracle import assert_equivalent, blocked_normal_pdf
from tests.test_moments import _spark_jobs

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


@pytest.fixture(scope="module")
def nulled_sdf(spark):
    """Values in (75, 125) over 5 blocks of ``spark.range`` (not a local
    relation, whose sampling filter Spark evaluates on the driver); every
    7th value is null, and so is all of block 4."""
    i = F.col("id")
    v = F.when((i % 7 != 0) & (i % 5 != 4), 100 + 25 * F.sin(i))
    return spark.range(0, 40_000, numPartitions=4).select(
        (i % 5).cast("int").alias("block"), v.alias("v")
    )


class TestBlockSizes:
    def test_compute_block_sizes_matches_metadata(self, normal_sdf):
        got = compute_block_sizes(normal_sdf, "v", "block").sizes
        assert got == round_robin_sizes(60_000, 6)

    def test_block_sizes_vs_duckdb_oracle(self, spark, nulled_sdf):
        """|B_j| counts values, not rows: COUNT(v), 0 for an all-null block."""
        sizes = compute_block_sizes(nulled_sdf, "v", "block", seed=3).sizes
        assert sizes[4] == 0
        got = spark.createDataFrame(list(sizes.items()), "block int, cnt long")
        assert_equivalent(
            got, "SELECT block, COUNT(v) AS cnt FROM data GROUP BY block",
            data=nulled_sdf,
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


class TestScan:
    """Block counts, σ-pilot and sketch pilot come from one aggregate by
    (block, octave of the row's uniform)."""

    def test_pre_estimate_is_one_aggregate(self, spark, nulled_sdf):
        """An aggregate is 2 Spark jobs (shuffle map, then result); the
        count and the two pilots as separate aggregates took 6."""
        n = _spark_jobs(
            spark, "pre-estimate", lambda: pre_estimate(nulled_sdf, "v", "block", CFG)
        )
        assert n == 2

    def test_sigma_pilot_is_the_sample_at_its_octave(self, nulled_sdf):
        """The octaves ≥ j_p hold exactly the rows ``sampled_moments``
        draws at fraction 2^-j_p with the same seed."""
        scan = compute_block_sizes(nulled_sdf, "v", "block", seed=3)
        octaves = sigma_pilot_octaves(sum(scan.sizes.values()), 4)
        assert octaves.start > 0
        got = scan.moments(octaves)
        want = sampled_moments(nulled_sdf, "v", 2.0**-octaves.start, 3, by=("block",))
        assert set(got) == {k for (k,), mo in want.items() if mo.n} == {0, 1, 2, 3}
        for blk, mo in got.items():
            assert mo.n == want[(blk,)].n
            assert mo.mean == pytest.approx(want[(blk,)].mean, rel=1e-12)
            assert mo.m2 == pytest.approx(want[(blk,)].m2, rel=1e-9)

    def test_sigma_pilot_plans_one_to_two_times_pilot_n(self, nulled_sdf):
        pre = pre_estimate(nulled_sdf, "v", "block", CFG, seed=3)
        assert set(pre.block_sizes) == {0, 1, 2, 3}  # all-null block 4 dropped
        planned = 2.0 ** -sigma_pilot_octaves(pre.M, 4).start * pre.M
        assert PILOT_N <= planned < 2 * PILOT_N
        assert sum(p.n for p in pre.pilot.values()) == pytest.approx(planned, rel=0.15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_an_error(self, spark, bad):
        """One NaN or ±inf among 200 000 values: SQL AVG would answer it,
        a sample cannot, so the query fails and names the column."""
        i = F.col("id")
        sdf = spark.range(0, 200_000, numPartitions=4).select(
            (i % 10).cast("int").alias("block"),
            F.when(i == 123_457, F.lit(bad)).otherwise(100 + 20 * F.sin(i)).alias("v"),
        )
        with pytest.raises(ValueError, match="column 'v' holds NaN or infinite"):
            isla_avg(sdf, "v", "block", CFG, seed=7)


class TestOctaves:
    """Driver-side octave arithmetic; no Spark."""

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    @settings(max_examples=300, deadline=None)
    def test_octave_rounds_up_to_a_power_of_two(self, f):
        p = 2.0 ** -octave_of(f)
        assert f <= p < 2 * f

    @given(
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=1, max_value=1_000),
        st.integers(min_value=1, max_value=10**9),
    )
    @settings(max_examples=300, deadline=None)
    def test_pilot_slices_are_disjoint_and_never_small(self, M, b, m_sketch):
        pilot = sigma_pilot_octaves(M, b)
        sketch = sketch_pilot_octaves(pilot, m_sketch, M)
        assert 2.0**-pilot.start >= min(1.0, max(PILOT_N, 30 * b) / M)
        if sketch.start == 0 and sketch.stop == DEEPEST_OCTAVE + 1:
            # The whole block: no disjoint slice is large enough.
            assert pilot.start == 0 or 2.0**-pilot.start + m_sketch / M > 1.0
        else:
            assert set(pilot).isdisjoint(sketch)
            assert 2.0**-sketch.start - 2.0**-sketch.stop >= m_sketch / M
