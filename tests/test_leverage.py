"""Leverage machinery tests, anchored on the paper's worked examples.

The Table II example is checked digit-for-digit (exact fractions), and
Theorem 3's streaming (k, c) is property-tested against the brute-force
per-sample l-estimator. The §VIII q′ bands are checked at their edges.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.leverage import (
    deviation_factors,
    l_estimator,
    leverage_allocating_q,
    normalization_factors,
    normalized_leverages,
    original_leverages,
    probabilities,
    q_prime,
    theorem3_kc,
    theoretical_leverage_sums,
)
from repro.core.moments import RegionMoments

# Table II: S samples {4, 5}, L sample {8}, q = 1, α = 0.1.
XS, YS = [4.0, 5.0], [8.0]


def kc(xs, ys, q=1.0):
    """Theorem 3's (k, c) from the moments and cube sums of raw samples."""
    return theorem3_kc(
        RegionMoments.from_values(xs),
        RegionMoments.from_values(ys),
        sum(x * x * x for x in xs),
        sum(y * y * y for y in ys),
        q,
    )


class TestTable2Example:
    """Every column of the paper's Table II, as exact fractions."""

    def test_original_leverages(self):
        lx, ly = original_leverages(XS, YS)
        assert lx[0] == pytest.approx(float(Fraction(89, 105)))
        assert lx[1] == pytest.approx(float(Fraction(16, 21)))   # = 80/105
        assert ly[0] == pytest.approx(float(Fraction(64, 105)))

    def test_normalization_factors(self):
        fac_x, fac_y = normalization_factors(XS, YS, 1.0)
        assert fac_x == pytest.approx(float(Fraction(169, 70)))
        assert fac_y == pytest.approx(float(Fraction(64, 35)))

    def test_normalized_leverages(self):
        lx, ly = normalized_leverages(XS, YS, 1.0)
        assert lx[0] == pytest.approx(float(Fraction(178, 507)))
        assert lx[1] == pytest.approx(float(Fraction(160, 507)))
        assert ly[0] == pytest.approx(float(Fraction(1, 3)))

    def test_probabilities_at_alpha_01(self):
        lx, ly = normalized_leverages(XS, YS, 1.0)
        px = probabilities(lx, 0.1, 3)
        py = probabilities(ly, 0.1, 3)
        assert px[0] == pytest.approx(float(Fraction(178, 507)) * 0.1 + 0.9 / 3)
        assert py[0] == pytest.approx(0.1 / 3 + 0.9 / 3)

    def test_answer_5_67(self):
        # Paper: "we obtain the aggregation answer of 5.67".
        assert l_estimator(XS, YS, 0.1, 1.0) == pytest.approx(5.665, abs=5e-3)

    def test_theorem3_agrees_with_table2(self):
        k, c = kc(XS, YS, 1.0)
        assert c == pytest.approx((4 + 5 + 8) / 3)
        assert k * 0.1 + c == pytest.approx(l_estimator(XS, YS, 0.1, 1.0))


class TestIntroExample:
    """§II-B Example 1: leverages reweight {2,4,6,8,20} toward 6.5."""

    def test_manual_leverage_example(self):
        # The paper hand-picks leverage 0.6 for the outlier 20:
        # probs {0.22×4, 0.12} → answer 6.8, vs uniform answer 8.
        probs = [0.22] * 4 + [0.12]
        ans = sum(p * v for p, v in zip(probs, [2, 4, 6, 8, 20]))
        assert ans == pytest.approx(6.8)
        uniform = sum([2, 4, 6, 8, 20]) / 5
        assert uniform == pytest.approx(8.0)
        assert abs(ans - 6.5) < abs(uniform - 6.5)


class TestDeviationFactors:
    def test_h_sums_to_one(self):
        hs = deviation_factors([1.0, 2.0, 3.0, 4.0])
        assert sum(hs) == pytest.approx(1.0)

    def test_h_positively_correlates_with_value(self):
        hs = deviation_factors([1.0, 2.0, 5.0, 10.0])
        assert hs == sorted(hs)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            deviation_factors([0.0, 0.0])


pos_values = st.lists(
    st.floats(min_value=0.5, max_value=1e4), min_size=1, max_size=30
)
qs = st.sampled_from([0.1, 0.2, 1.0, 5.0, 10.0])
alphas = st.floats(min_value=-0.5, max_value=1.0)


class TestLeverageProperties:
    @given(pos_values, pos_values, qs)
    @settings(max_examples=200, deadline=None)
    def test_normalized_leverages_sum_to_one(self, xs, ys, q):
        lx, ly = normalized_leverages(xs, ys, q)
        assert sum(lx) + sum(ly) == pytest.approx(1.0, rel=1e-9)

    @given(pos_values, pos_values, qs)
    @settings(max_examples=100, deadline=None)
    def test_region_sums_match_constraint2(self, xs, ys, q):
        # levSum_S / levSum_L = q·u/v (Constraint 2 with the q damping).
        lx, ly = normalized_leverages(xs, ys, q)
        u, v = len(xs), len(ys)
        want_s, want_l = theoretical_leverage_sums(u, v, q)
        assert sum(lx) == pytest.approx(want_s, rel=1e-9)
        assert sum(ly) == pytest.approx(want_l, rel=1e-9)

    @given(pos_values, pos_values, qs, alphas)
    @settings(max_examples=200, deadline=None)
    def test_probabilities_sum_to_one(self, xs, ys, q, alpha):
        # Theorem 2: Σprob = αΣlev + (1−α) = 1 for any α.
        lx, ly = normalized_leverages(xs, ys, q)
        m = len(xs) + len(ys)
        ps = probabilities(lx + ly, alpha, m)
        assert sum(ps) == pytest.approx(1.0, rel=1e-9)

    @given(pos_values, pos_values, qs, alphas)
    @settings(max_examples=200, deadline=None)
    def test_theorem3_equals_brute_force(self, xs, ys, q, alpha):
        """The streaming-moments path must equal the per-sample path."""
        k, c = kc(xs, ys, q)
        brute = l_estimator(xs, ys, alpha, q)
        assert k * alpha + c == pytest.approx(brute, rel=1e-7, abs=1e-7)

    @given(pos_values, pos_values, qs)
    @settings(max_examples=100, deadline=None)
    def test_c_is_uniform_mean_of_SL(self, xs, ys, q):
        """f(0) = c = the uniform S∪L mean (α=0 disables leverages)."""
        _, c = kc(xs, ys, q)
        assert c == pytest.approx((sum(xs) + sum(ys)) / (len(xs) + len(ys)))

    @given(pos_values, pos_values)
    @example([1.0], [9989.0, 9998.5, 9999.999999999998])
    @settings(max_examples=100, deadline=None)
    def test_order_insensitive(self, xs, ys):
        """The sampling-sequence insensitivity claim (§V-A).

        k = term_x + term_y − c cancels: in the pinned example c ≈ 7497
        while k ≈ 0.0036, so a few ulps of rounding in the sums move k by
        ~1e-9 of itself. The bound is on the operands' scale.
        """
        k1, c1 = kc(xs, ys, 1.0)
        k2, c2 = kc(list(reversed(xs)), list(reversed(ys)), 1.0)
        assert k1 == pytest.approx(k2, rel=1e-9, abs=1e-12 * max(xs + ys))
        assert c1 == pytest.approx(c2, rel=1e-9)


class TestErrors:
    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            kc([], [1.0])
        with pytest.raises(ValueError):
            normalization_factors([], [1.0])

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError):
            kc([1.0], [2.0], 0.0)

    def test_bad_probability_count_rejected(self):
        with pytest.raises(ValueError):
            probabilities([0.5], 0.1, 0)

    def test_theoretical_sums_need_nonempty_regions(self):
        with pytest.raises(ValueError):
            theoretical_leverage_sums(0, 3, 1.0)
        with pytest.raises(ValueError):
            theoretical_leverage_sums(3, 3, -1.0)

    def test_all_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            kc([0.0], [0.0])


class TestQEffect:
    """q shifts leverage mass between the S and L regions (§IV-A4)."""

    def test_large_q_boosts_S_share(self):
        xs, ys = [10.0, 11.0, 12.0], [30.0, 31.0]
        s1, l1 = map(sum, normalized_leverages(xs, ys, 1.0))
        s5, l5 = map(sum, normalized_leverages(xs, ys, 5.0))
        assert s5 > s1 and l5 < l1

    def test_small_q_damps_S_share(self):
        xs, ys = [10.0, 11.0, 12.0], [30.0, 31.0]
        s1, _ = map(sum, normalized_leverages(xs, ys, 1.0))
        s02, _ = map(sum, normalized_leverages(xs, ys, 0.2))
        assert s02 < s1

    @pytest.mark.parametrize("q", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_alpha_zero_ignores_q(self, q):
        xs, ys = [10.0, 12.0], [30.0, 35.0]
        assert l_estimator(xs, ys, 0.0, q) == pytest.approx(
            sum(xs + ys) / 4
        )


class TestQSelection:
    """§VIII "Parameters": the q′ bands from the deviation degree (they
    live beside the explicit leverage path, which no answer reads)."""

    @pytest.mark.parametrize("dev", [0.975, 0.99, 1.0, 1.01, 1.025])
    def test_inner_band_q1(self, dev):
        assert q_prime(dev) == 1.0

    @pytest.mark.parametrize("dev", [0.945, 0.96, 1.04, 1.055])
    def test_mid_band_q5(self, dev):
        assert q_prime(dev) == 5.0

    @pytest.mark.parametrize("dev", [0.1, 0.93, 1.07, 2.5, 10.0])
    def test_outer_band_q10(self, dev):
        assert q_prime(dev) == 10.0

    @pytest.mark.parametrize(
        "dev,expected",
        [
            (1.0, 1.0),          # no deviation → q = 1
            (0.95, 5.0),         # |S| < |L| → boost S: q = q′
            (1.05, 1.0 / 5.0),   # |S| > |L| → damp S: q = 1/q′
            (0.5, 10.0),
            (2.0, 1.0 / 10.0),
        ],
    )
    def test_leverage_allocating_q(self, dev, expected):
        assert leverage_allocating_q(dev) == pytest.approx(expected)

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_q_always_positive(self, dev):
        assert leverage_allocating_q(dev) > 0
