"""Unit tests for repro.core.config (Eq. (1), quantiles)."""

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import ISLAConfig, required_sample_size, z_score


class TestZScore:
    @pytest.mark.parametrize(
        "beta,expected",
        [
            (0.80, 1.2816),
            (0.90, 1.6449),
            (0.95, 1.9600),
            (0.98, 2.3263),
            (0.99, 2.5758),
        ],
    )
    def test_standard_quantiles(self, beta, expected):
        assert z_score(beta) == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 1.5])
    def test_invalid_confidence_rejected(self, beta):
        with pytest.raises(ValueError):
            z_score(beta)

    @given(st.floats(min_value=0.5, max_value=0.999))
    def test_monotone_in_beta(self, beta):
        assert z_score(beta + 0.0005) > z_score(beta)


class TestRequiredSampleSize:
    def test_paper_default_m(self):
        # §VIII defaults: σ=20, e=0.1, β=0.95 → m = (1.96·20/0.1)² ≈ 153 664.
        m = required_sample_size(20.0, 0.1, 0.95)
        assert m == pytest.approx(153_664, rel=1e-3)

    @pytest.mark.parametrize("e1,e2", [(0.05, 0.1), (0.1, 0.2), (0.2, 0.5)])
    def test_smaller_precision_needs_more_samples(self, e1, e2):
        assert required_sample_size(20, e1, 0.95) > required_sample_size(20, e2, 0.95)

    @pytest.mark.parametrize("b1,b2", [(0.8, 0.9), (0.9, 0.95), (0.95, 0.99)])
    def test_higher_confidence_needs_more_samples(self, b1, b2):
        assert required_sample_size(20, 0.1, b2) > required_sample_size(20, 0.1, b1)

    def test_quadratic_in_sigma(self):
        m1 = required_sample_size(10, 0.1, 0.95)
        m2 = required_sample_size(20, 0.1, 0.95)
        assert m2 == pytest.approx(4 * m1, rel=1e-3)

    def test_inverse_quadratic_in_e(self):
        m1 = required_sample_size(20, 0.1, 0.95)
        m2 = required_sample_size(20, 0.2, 0.95)
        assert m1 == pytest.approx(4 * m2, rel=1e-3)

    @pytest.mark.parametrize("sigma,e", [(20, 0), (20, -1), (-1, 0.1)])
    def test_invalid_inputs_rejected(self, sigma, e):
        with pytest.raises(ValueError):
            required_sample_size(sigma, e, 0.95)

    def test_zero_sigma_gives_minimum_one(self):
        assert required_sample_size(0.0, 0.1, 0.95) == 1


class TestISLAConfigValidation:
    def test_defaults_match_paper(self):
        cfg = ISLAConfig()
        assert cfg.e == 0.1
        assert cfg.beta == 0.95
        assert cfg.eta == 0.5
        assert cfg.lam == 0.8
        assert cfg.p1 == 0.5
        assert cfg.p2 == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"e": 0.0},
            {"e": -1.0},
            {"eta": 0.0},
            {"eta": 1.0},
            {"lam": 0.0},
            {"lam": 1.0},
            {"p1": 0.0},
            {"p1": 2.0, "p2": 1.0},
            {"t_e": 1.0},
            {"t_e": 0.5},
            {"e": math.nan},
            {"e": math.inf},
            # Algorithm 2 would never stop, stop by underflow, or not start.
            {"thr": -1.0},
            {"thr": 0.0},
            {"thr": math.nan},
            {"thr": math.inf},
            # z_score would raise only inside pre_estimate, after its jobs.
            {"beta": 0.0},
            {"beta": 1.0},
            {"beta": 1.5},
            {"beta": math.nan},
            # A one-row sketch pilot and no clamp; unbounded S/L regions.
            {"t_e": math.inf},
            {"p2": math.inf},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ISLAConfig(**kwargs)

    def test_threshold_defaults_to_e_over_100(self):
        assert ISLAConfig(e=0.5).threshold == pytest.approx(0.005)
        assert ISLAConfig(e=0.5, thr=0.01).threshold == 0.01

    def test_with_replaces_fields(self):
        cfg = replace(ISLAConfig(), e=0.5, lam=0.6)
        assert cfg.e == 0.5 and cfg.lam == 0.6 and cfg.beta == 0.95

    def test_sketch_sample_is_m_over_te_squared(self):
        cfg = ISLAConfig(e=0.1, t_e=3.0)
        m = cfg.sample_size(20.0)
        assert cfg.sketch_sample_size(20.0) == pytest.approx(m / 9.0, rel=0.01)
