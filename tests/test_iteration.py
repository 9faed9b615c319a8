"""Phase-2 modulation tests: cases, step lengths, convergence, clamping."""
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ISLAConfig
from repro.core.iteration import (
    DEV_CASE5,
    algorithm2,
    classify_case,
    iteration_upper_bound,
    modulate_block,
)
from repro.core.moments import RegionMoments
from tests.paper_reference import moments_of


def moments_for(xs, ys):
    return moments_of(xs), moments_of(ys)


def sl_mean(m_s, m_l):
    """c: the uniform S∪L sample mean (Theorem 3's f(0))."""
    return (m_s.s1 + m_l.s1) / (m_s.n + m_l.n)


def synthetic_moments(u, v, mean_s=80.0, mean_l=120.0):
    """Region moments for u S-samples around mean_s and v L-samples
    around mean_l (small spread, deterministic)."""
    xs = [mean_s + 0.1 * (i % 7 - 3) for i in range(u)]
    ys = [mean_l + 0.1 * (i % 5 - 2) for i in range(v)]
    return moments_for(xs, ys)


CFG = ISLAConfig(e=0.1)


class TestCaseClassification:
    @pytest.mark.parametrize(
        "d0,u,v,case",
        [
            (-1.0, 10, 20, 1),
            (-1.0, 20, 10, 2),
            (1.0, 10, 20, 3),
            (1.0, 20, 10, 4),
        ],
    )
    def test_cases(self, d0, u, v, case):
        assert classify_case(d0, u, v) == case


class TestIterationBound:
    @pytest.mark.parametrize(
        "d0,thr,expected",
        [
            (1.0, 0.001, 10),   # ⌈log2(1000)⌉
            (0.5, 0.001, 9),
            (1.0, 1.0, 0),
            (0.0009, 0.001, 0),
            (8.0, 1.0, 3),
            # Exact powers of 1/η, where ⌈log2(|D⁰|/thr)⌉ rounds up to
            # 30, 32 and 30; Algorithm 2 stops after 29, 31 and 29 rounds.
            (2.0**29, 1.0, 29),
            (2.0**31, 1.0, 31),
            (0.001 * 2.0**29, 0.001, 29),
        ],
    )
    def test_bound_formula(self, d0, thr, expected):
        assert iteration_upper_bound(d0, thr) == expected

    @pytest.mark.parametrize("d0", [math.inf, -math.inf, math.nan])
    def test_non_finite_gap_rejected(self, d0):
        with pytest.raises(ValueError):
            iteration_upper_bound(d0, 0.001)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-4, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_geometric_halving_respects_bound(self, d0, thr):
        t = iteration_upper_bound(d0, thr)
        assert d0 * 0.5**t <= thr * (1 + 1e-9)
        if t > 0:
            assert d0 * 0.5 ** (t - 1) > thr * (1 - 1e-9)


class TestCase5:
    def test_balanced_regions_return_sketch0(self):
        m_s, m_l = synthetic_moments(1000, 1000)
        ans = modulate_block(m_s, m_l, 101.5, CFG)
        assert ans.case == 5
        assert ans.partial == 101.5
        assert ans.iters == 0

    @pytest.mark.parametrize("u,v", [(995, 1000), (1000, 995)])
    def test_band_edges(self, u, v):
        # dev = 0.995 / 1.00503 — inside (0.99, 1.01).
        m_s, m_l = synthetic_moments(u, v)
        assert modulate_block(m_s, m_l, 100.0, CFG).case == 5

    @pytest.mark.parametrize("u,v", [(0, 100), (100, 0), (0, 0)])
    def test_empty_region_falls_back_to_sketch(self, u, v):
        m_s, m_l = synthetic_moments(max(u, 1), max(v, 1))
        if u == 0:
            m_s = RegionMoments.empty()
        if v == 0:
            m_l = RegionMoments.empty()
        ans = modulate_block(m_s, m_l, 99.0, CFG)
        assert ans.partial == 99.0
        assert ans.case == 5


class TestInteriorMeeting:
    """Cases 2/3 converge to (c + λ·sketch0)/(1+λ) (DESIGN.md §2)."""

    def _run(self, u, v, sketch0, cfg=CFG):
        m_s, m_l = synthetic_moments(u, v)
        ans = algorithm2(m_s, m_l, sketch0, cfg)
        return ans, sl_mean(m_s, m_l)

    def test_case2_meets_lambda_weighted_point(self):
        # |S| > |L| and c < sketch0 → Case 2.
        ans, c = self._run(1100, 1000, sketch0=110.0)
        assert ans.case == 2
        want = (c + CFG.lam * 110.0) / (1 + CFG.lam)
        # Residual |D| ≤ thr remains; tolerance is the leftover step mass.
        assert ans.partial == pytest.approx(want, abs=CFG.threshold)

    def test_case3_meets_lambda_weighted_point(self):
        # |S| < |L| and c > sketch0 → Case 3.
        ans, c = self._run(1000, 1100, sketch0=90.0)
        assert ans.case == 3
        want = (c + CFG.lam * 90.0) / (1 + CFG.lam)
        assert ans.partial == pytest.approx(want, abs=CFG.threshold)

    @given(
        st.floats(min_value=95.0, max_value=99.0),
        st.sampled_from([0.2, 0.5, 0.8]),
    )
    @settings(max_examples=50, deadline=None)
    def test_case3_answer_between_estimators(self, sketch0, lam):
        cfg = replace(CFG, lam=lam)
        m_s, m_l = synthetic_moments(1000, 1150)
        c = sl_mean(m_s, m_l)
        ans = algorithm2(m_s, m_l, sketch0, cfg)
        assert ans.case == 3
        assert sketch0 - 1e-9 <= ans.partial <= c + 1e-9

    def test_alpha_recovers_partial(self):
        """avg = kα + c (Alg. 2 line 12): the partial is the reported c
        (the S∪L mean) moved by the modulation kα, which in Case 3 goes
        from c toward sketch0 without passing it."""
        m_s, m_l = synthetic_moments(1000, 1150)
        ans = algorithm2(m_s, m_l, 95.0, CFG)
        assert ans.case == 3
        assert ans.c == sl_mean(m_s, m_l)
        assert ans.d0 == ans.c - 95.0
        assert 95.0 < ans.partial < ans.c

    def test_iters_within_upper_bound(self):
        m_s, m_l = synthetic_moments(1000, 1150)
        ans = algorithm2(m_s, m_l, 95.0, CFG)
        assert 0 < ans.iters == iteration_upper_bound(ans.d0, CFG.threshold)


class TestUnbalancedCases:
    """Cases 1/4 extrapolate past sketch0, toward μ."""

    def test_case1_extrapolates_above_sketch0(self):
        # |S| < |L| (μ above sketch0) yet c < sketch0: unbalanced.
        m_s, m_l = synthetic_moments(1000, 1300, mean_s=70.0, mean_l=110.0)
        sketch0 = sl_mean(m_s, m_l) + 0.05  # slightly above c → D0 < 0
        ans = algorithm2(m_s, m_l, sketch0, CFG)
        assert ans.case == 1
        assert ans.partial > sketch0

    def test_case4_extrapolates_below_sketch0(self):
        m_s, m_l = synthetic_moments(1300, 1000, mean_s=90.0, mean_l=130.0)
        sketch0 = sl_mean(m_s, m_l) - 0.05  # slightly below c → D0 > 0
        ans = algorithm2(m_s, m_l, sketch0, CFG)
        assert ans.case == 4
        assert ans.partial < sketch0

    def test_case4_alpha_negative(self):
        # §V-C Case 4: "α is negative to balance such unbalanced sampling"
        # (when k > 0): the modulation t = kα is negative, so the partial
        # lies below c.
        m_s, m_l = synthetic_moments(1300, 1000, mean_s=90.0, mean_l=130.0)
        c = sl_mean(m_s, m_l)
        ans = algorithm2(m_s, m_l, c - 0.05, CFG)
        assert ans.case == 4
        assert ans.partial < c


class TestClamp:
    def test_clamp_limits_to_sketch_ci(self):
        """§VII-B: answers cannot leave sketch0 ± t_e·e."""
        m_s, m_l = synthetic_moments(1000, 2000, mean_s=60.0, mean_l=150.0)
        sketch0 = 80.0
        ans = modulate_block(m_s, m_l, sketch0, CFG)
        radius = CFG.t_e * CFG.e
        assert sketch0 - radius - 1e-12 <= ans.partial <= sketch0 + radius + 1e-12

    def test_clamp_flag_reported(self):
        m_s, m_l = synthetic_moments(1000, 2000, mean_s=60.0, mean_l=150.0)
        ans = modulate_block(m_s, m_l, 80.0, CFG)
        unclamped = algorithm2(m_s, m_l, 80.0, CFG)
        if abs(unclamped.partial - 80.0) > CFG.t_e * CFG.e:
            assert ans.clamped and not unclamped.clamped

    def test_interior_answers_not_clamped(self):
        m_s, m_l = synthetic_moments(1100, 1000)
        ans = modulate_block(m_s, m_l, sl_mean(m_s, m_l) + 0.1, CFG)
        assert not ans.clamped


class TestLiteralCase3:
    def test_literal_mode_extrapolates_past_c(self):
        """§V-C verbatim Case 3: both up ⇒ meeting point beyond c by
        (λ/(1−λ))·D⁰ — the amplification DESIGN.md §2 documents."""
        m_s, m_l = synthetic_moments(1000, 1150)
        c = sl_mean(m_s, m_l)
        sketch0 = c - 0.2
        partial, case, _, _ = _reference_modulate(
            m_s, m_l, sketch0, CFG, literal=True, clamp=False
        )
        assert case == 3
        d0 = c - sketch0
        want = c + (CFG.lam / (1 - CFG.lam)) * d0
        assert partial == pytest.approx(want, abs=5 * CFG.threshold)
        assert partial > c


def _reference_modulate(m_s, m_l, sketch0, cfg, *, literal=False, clamp=True):
    """The iterative Algorithm 2 that ``modulate_block`` replaced, kept as
    the reference: returns (partial, case, iters, clamped).

    It stepped the sketch and the leverage modulation t = kα round by
    round; Theorem 3's k only rescaled α = t/k and never entered avg.
    ``literal`` takes §V-C Case 3 verbatim (both estimators up), the
    reading DESIGN.md §2 rejects; ``clamp`` applies the §VII-B clamp.
    """
    u, v = m_s.n, m_l.n
    if u == 0 or v == 0:
        return sketch0, 5, 0, False
    dev = u / v
    if DEV_CASE5[0] < dev < DEV_CASE5[1]:
        return sketch0, 5, 0, False
    c = (m_s.s1 + m_l.s1) / (u + v)
    d0 = c - sketch0
    if d0 == 0.0:
        return c, 5, 0, False
    case = classify_case(d0, u, v)

    d = d0
    sketch = sketch0
    t = 0.0
    thr = cfg.threshold
    lam, eta = cfg.lam, cfg.eta
    iters = 0
    while abs(d) > thr and iters < 64:
        delta = (1.0 - eta) * abs(d)
        if case == 2:
            ds = delta / (1.0 + lam)
            dt = lam * ds
            sketch -= ds
            t += dt
        elif case == 3:
            if literal:
                ds = delta / (1.0 - lam)
                dt = lam * ds
                sketch += ds
                t += dt
            else:
                ds = delta / (1.0 + lam)
                dt = lam * ds
                sketch += ds
                t -= dt
        elif case == 1:
            dt = delta / (1.0 - lam)
            ds = lam * dt
            sketch += ds
            t += dt
        else:
            dt = delta / (1.0 - lam)
            ds = lam * dt
            sketch -= ds
            t -= dt
        d *= eta
        iters += 1
    avg = c + t
    if clamp:
        radius = cfg.t_e * cfg.e
        lo, hi = sketch0 - radius, sketch0 + radius
        if avg < lo or avg > hi:
            return min(max(avg, lo), hi), case, iters, True
    return avg, case, iters, False


@st.composite
def loop_inputs(draw):
    """A block's S/L moments, a sketch0, a config and whether to clamp,
    for the loop test.

    c is a multiple of 2⁻¹⁰, so with thr = 2⁻¹⁰ and η = 0.5 the drawn
    |D⁰|/thr = 2ᵏ is exact and the loop stops exactly at |D| = thr. Both
    records sit at mean c, which their pooled mean recovers exactly; the
    closed form reads only c, u and v.
    """
    u = draw(st.integers(1, 3000))
    v = draw(st.integers(1, 3000))
    c = draw(st.integers(60 * 1024, 140 * 1024)) / 1024
    m_s = RegionMoments(u, c, 0.0)
    m_l = RegionMoments(v, c, 0.0)
    eta = draw(st.sampled_from([0.3, 0.5, 0.7]))
    thr = draw(st.sampled_from([2.0**-10, 1e-3]))
    if draw(st.booleans()):  # |D⁰|/thr at an exact power of 1/η
        k = draw(st.integers(0, 40))
        sketch0 = c - draw(st.sampled_from([-1.0, 1.0])) * thr / eta**k
    else:
        sketch0 = c - draw(st.floats(-5.0, 5.0))
    cfg = ISLAConfig(
        e=draw(st.sampled_from([0.1, 0.5, 2.0])),
        eta=eta,
        lam=draw(st.sampled_from([0.2, 0.5, 0.8])),
        thr=thr,
    )
    return m_s, m_l, sketch0, cfg, draw(st.booleans())


class TestClosedFormMatchesLoop:
    """The closed form equals the iterative Algorithm 2 (DESIGN.md §2):
    ``modulate_block`` with the clamp, ``algorithm2`` without it."""

    @given(loop_inputs())
    @settings(max_examples=1000, deadline=None)
    def test_same_case_iters_and_partial(self, inputs):
        m_s, m_l, sketch0, cfg, clamp = inputs
        want, case, iters, clamped = _reference_modulate(
            m_s, m_l, sketch0, cfg, clamp=clamp
        )
        ans = (modulate_block if clamp else algorithm2)(m_s, m_l, sketch0, cfg)
        assert (ans.case, ans.iters, ans.clamped) == (case, iters, clamped)
        # Relative to the operands' scale: the loop sums n rounded steps.
        scale = max(abs(want), abs(ans.c), abs(sketch0))
        assert ans.partial == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


def test_literal_cumulative_reading_is_inconsistent():
    """DESIGN.md §2: applying §V-D's λ relation to the *cumulative* kα
    against the per-iteration δsketch yields a negative sketch step from
    iteration 2 on — the reading is unimplementable, which is why the
    per-iteration reading is used."""
    lam, eta, d0 = 0.8, 0.5, 1.0
    # Iteration 1 (identical under both readings): t1 = λ·s1.
    s1 = (1 - eta) * d0 / (1 - lam)
    t1 = lam * s1
    d1 = eta * d0
    # Iteration 2, cumulative reading: t2 = λ(s2 − s1) and
    # t2 + d0 − s2 = η·d1 ⇒ s2 = (η·d1 − d0 + λ·s1)/(λ − 1), which is
    # negative for λ=0.8 — the cumulative sketch position would jump
    # *below* its starting point although Case 3 requires increasing it.
    s2 = (eta * d1 - d0 + lam * s1) / (lam - 1)
    assert s2 < 0 < s1
