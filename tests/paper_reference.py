"""Paper-fidelity references that no ISLA answer reads; tests compare
against them.

* Leverages, re-weighted probabilities and Theorem 3 (§IV, appendix A).
  Phase 2's block answer depends only on Theorem 3's ``c`` (the uniform
  S∪L mean), so :mod:`repro.core.iteration` computes that directly
  (DESIGN.md §2). Two equivalent computation paths are kept:

  * an *explicit* per-sample path (original leverages → normalisation
    factors → normalised leverages → probabilities → l-estimator) — it
    reproduces the paper's Table II worked example exactly — with the
    §VIII q′ bands that choose the leverage allocating parameter q; and
  * the *streaming-moments* path of Theorem 3, which computes the affine
    coefficients ``μ̂ = f(α) = kα + c`` purely from
    ``(count, Σx, Σx², Σx³)`` of the S and L samples: no sample storage,
    order-insensitive.

  Notation: X = S samples (size u), Y = L samples (size v),
  T = Σx² + Σy², q = leverage allocating parameter.
* :func:`classify` — the plain-Python region of one value (Fig. 3),
  which the Spark ``region_column`` is tested against.
* :func:`moments_of` — the updateParams loop of Algorithm 1 over raw
  values, as a fold of one-value :meth:`RegionMoments.merge` calls.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import reduce

from repro.core.boundaries import DataBoundaries, Region
from repro.core.moments import RegionMoments

#: §VIII "Parameters": q′ = 1 for dev = |S|/|L| inside DEV_Q1 (no obvious
#: sketch0 deviation), q′ = 5 inside DEV_Q5, q′ = 10 outside both.
DEV_Q1 = (0.97, 1.03)
DEV_Q5 = (0.94, 1.06)


def q_prime(dev: float) -> float:
    """q′ from the deviation degree per §VIII "Parameters"."""
    if DEV_Q1[0] < dev < DEV_Q1[1]:
        return 1.0
    if DEV_Q5[0] < dev < DEV_Q5[1]:
        return 5.0
    return 10.0


def leverage_allocating_q(dev: float) -> float:
    """q from dev (§IV-A4): damp the side that sketch0 over-counts.

    ``|S| > |L|`` (dev > 1) → decrease the S leverage share, q = 1/q′;
    otherwise q = q′.
    """
    qp = q_prime(dev)
    if qp == 1.0:
        return 1.0
    return 1.0 / qp if dev > 1.0 else qp


def deviation_factors(values: Sequence[float]) -> list[float]:
    """Deviation factor ``h_i = a_i² / Σ a_j²`` over a joint sample set."""
    t = sum(a * a for a in values)
    if t <= 0:
        raise ValueError("sum of squares must be positive")
    return [a * a / t for a in values]


def original_leverages(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[list[float], list[float]]:
    """Original (pre-normalisation) leverage scores (§IV-A2).

    S samples get ``1 − h`` (closer to the middle axis from below ⇒ the
    complement), L samples get ``h``; h is computed over X ∪ Y.
    """
    t = sum(a * a for a in xs) + sum(a * a for a in ys)
    if t <= 0:
        raise ValueError("sum of squares must be positive")
    return [1.0 - x * x / t for x in xs], [y * y / t for y in ys]


def theoretical_leverage_sums(u: int, v: int, q: float) -> tuple[float, float]:
    """Allocated leverage sums per Constraints 1 & 2 with q (§IV-A3/4).

    ``levSum_S + levSum_L = 1`` and ``levSum_S/levSum_L = q·u/v`` give
    ``levSum_S = qu/(qu+v)``, ``levSum_L = v/(qu+v)``.
    """
    if u <= 0 or v <= 0:
        raise ValueError("both regions must be non-empty")
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    denom = q * u + v
    return q * u / denom, v / denom


def normalization_factors(
    xs: Sequence[float], ys: Sequence[float], q: float = 1.0
) -> tuple[float, float]:
    """Normalisation factors fac (appendix A step 2).

    ``fac = (sum of original leverage scores) / (theoretical sum)``:
    fac_x = (u + v/q)(1 − Σx²/(uT)), fac_y = (qu/v + 1)(Σy²/T).
    """
    u, v = len(xs), len(ys)
    sx2 = sum(x * x for x in xs)
    sy2 = sum(y * y for y in ys)
    t = sx2 + sy2
    if u <= 0 or v <= 0 or t <= 0:
        raise ValueError("both regions must be non-empty with positive Σa²")
    fac_x = (u + v / q) * (1.0 - sx2 / (u * t))
    fac_y = (q * u / v + 1.0) * (sy2 / t)
    return fac_x, fac_y


def normalized_leverages(
    xs: Sequence[float], ys: Sequence[float], q: float = 1.0
) -> tuple[list[float], list[float]]:
    """Normalised leverages (appendix A step 3): original / fac."""
    lx, ly = original_leverages(xs, ys)
    fac_x, fac_y = normalization_factors(xs, ys, q)
    return [l / fac_x for l in lx], [l / fac_y for l in ly]


def probabilities(
    levs: Sequence[float], alpha: float, m: int
) -> list[float]:
    """Re-weighted probabilities Eq. (2): ``α·lev + (1−α)/m``."""
    if m <= 0:
        raise ValueError(f"sample count must be positive, got {m}")
    return [alpha * lev + (1.0 - alpha) / m for lev in levs]


def l_estimator(
    xs: Sequence[float],
    ys: Sequence[float],
    alpha: float,
    q: float = 1.0,
) -> float:
    """Brute-force leverage-based answer μ̂ = Σ prob·a (appendix A step 5).

    Reference implementation for tests; :func:`theorem3_kc` must agree
    with it to float precision for every input.
    """
    lev_x, lev_y = normalized_leverages(xs, ys, q)
    m = len(xs) + len(ys)
    px = probabilities(lev_x, alpha, m)
    py = probabilities(lev_y, alpha, m)
    return sum(p * x for p, x in zip(px, xs)) + sum(
        p * y for p, y in zip(py, ys)
    )


def theorem3_kc(
    m_s: RegionMoments,
    m_l: RegionMoments,
    sx3: float,
    sy3: float,
    q: float = 1.0,
) -> tuple[float, float]:
    """Theorem 3: μ̂ = f(α) = kα + c from streaming S/L moments.

    ``sx3``/``sy3`` are the cube sums Σx³/Σy³ of the S/L samples, which
    only k needs (the Spark job does not gather them).

    ``c = (Σx + Σy)/(u + v)`` (the uniform S∪L mean — the theorem-body
    form; the appendix's inverted fraction is a typo, see DESIGN.md §2)
    and

    ``k = (TΣx − Σx³)/((1 + v/(qu))(uT − Σx²))
        + vΣy³/((qu + v)Σy²) − c``,  T = Σx² + Σy².
    """
    u, sx, sx2 = m_s.n, m_s.s1, m_s.s2
    v, sy, sy2 = m_l.n, m_l.s1, m_l.s2
    if u <= 0 or v <= 0:
        raise ValueError("Theorem 3 needs non-empty S and L regions")
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    t = sx2 + sy2
    if t <= 0 or sy2 <= 0 or (u * t - sx2) <= 0:
        # u·T − Σx² = (u−1)Σx² + uΣy² > 0 whenever u,v ≥ 1 and values are
        # not all zero; a zero here means degenerate all-zero samples.
        raise ValueError("degenerate moments: all sampled values are zero")
    c = (sx + sy) / (u + v)
    term_x = (t * sx - sx3) / ((1.0 + v / (q * u)) * (u * t - sx2))
    term_y = (v * sy3) / ((q * u + v) * sy2)
    k = term_x + term_y - c
    return k, c


def classify(bounds: DataBoundaries, x: float) -> Region:
    """Region of a single value under ``bounds`` (mirrors Fig. 3)."""
    if x <= bounds.s_lower:
        return Region.TS
    if x < bounds.s_upper:
        return Region.S
    if x <= bounds.l_lower:
        return Region.N
    if x < bounds.l_upper:
        return Region.L
    return Region.TL


def moments_of(values: Iterable[float]) -> RegionMoments:
    """The moments record of ``values``: updateParams (Alg. 1) applied
    one value at a time."""
    return reduce(
        lambda m, a: m.merge(RegionMoments(1, a, 0.0)), values, RegionMoments.empty()
    )
