"""ISLA parameters (Table I) and confidence-interval math (§III-A).

Defaults follow §VIII "Parameters" where the paper gives values
(e=0.1, β=0.95, λ=0.8, p1=0.5, p2=2.0, η=0.5) and DESIGN.md §2 where it
does not (t_e, thr). Values no caller tunes are constants beside the code
that reads them: the σ-pilot size (``pre_estimation.PILOT_N``), the Case-5
band (``iteration.DEV_CASE5``) and the §VIII q′ bands, which feed no answer
(``leverage.DEV_Q1``/``DEV_Q5``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist


def z_score(beta: float) -> float:
    """Two-sided normal quantile ``u`` for confidence ``beta`` (Def. 1).

    For confidence β, the interval is ``mean ± u·σ/√m`` with
    ``u = Φ⁻¹((1+β)/2)``; e.g. ``z_score(0.95) ≈ 1.96``.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {beta}")
    return NormalDist().inv_cdf((1.0 + beta) / 2.0)


def required_sample_size(sigma: float, e: float, beta: float) -> int:
    """Eq. (1) sample size ``m = u²σ²/e²`` (at least 1)."""
    if e <= 0:
        raise ValueError(f"desired precision must be positive, got {e}")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    u = z_score(beta)
    return max(1, int(round(u * u * sigma * sigma / (e * e))))


@dataclass(frozen=True)
class ISLAConfig:
    """The paper's parameters (Table I), one immutable record.

    Attributes
    ----------
    e : desired precision (half-width of the confidence interval).
    beta : confidence β for the precision assurance, in (0, 1).
    eta : convergence speed η — |D| shrinks to η|D| per iteration (§V-D).
    lam : step length factor λ — the shorter step is λ× the longer (§V-D).
    p1, p2 : data boundary parameters (§IV-A1), boundaries at
        ``sketch0 ± p1·σ`` and ``sketch0 ± p2·σ``; 0 < p1 < p2 < ∞.
    t_e : relaxed-precision parameter for sketch0 (§III-B); the sketch
        pilot targets precision ``t_e·e`` so its sample is m/t_e²; finite,
        above 1.
    thr : iteration threshold — stop when |D| ≤ thr (§V-D); positive and
        finite. The paper gives no default; e/100 makes the residual
        negligible vs e.
    """

    e: float = 0.1
    beta: float = 0.95
    eta: float = 0.5
    lam: float = 0.8
    p1: float = 0.5
    p2: float = 2.0
    t_e: float = 3.0
    thr: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.e < math.inf:
            raise ValueError(f"e must be positive and finite, got {self.e}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must be in (0, 1), got {self.eta}")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must be in (0, 1), got {self.lam}")
        # An infinite p2 or t_e would give unbounded S/L regions, or a
        # one-row sketch pilot and no clamp.
        if not 0.0 < self.p1 < self.p2 < math.inf:
            raise ValueError(
                f"need 0 < p1 < p2 < inf, got p1={self.p1}, p2={self.p2}"
            )
        if not 1.0 < self.t_e < math.inf:
            raise ValueError(f"t_e must exceed 1 and be finite, got {self.t_e}")
        # Algorithm 2 stops once |D| ≤ thr (e/100 by default): never for
        # thr < 0, only by underflow for thr = 0, and at once for NaN.
        if self.thr is not None and not 0.0 < self.thr < math.inf:
            raise ValueError(f"thr must be positive and finite, got {self.thr}")

    @property
    def threshold(self) -> float:
        """Effective iteration threshold thr (defaults to e/100)."""
        return self.thr if self.thr is not None else self.e / 100.0

    def sample_size(self, sigma: float) -> int:
        """Eq. (1) main-phase sample size for an estimated σ."""
        return required_sample_size(sigma, self.e, self.beta)

    def sketch_sample_size(self, sigma: float) -> int:
        """Sample size for sketch0 at the relaxed precision t_e·e."""
        return required_sample_size(sigma, self.t_e * self.e, self.beta)
