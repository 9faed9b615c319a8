"""Phase 2 — deviation evaluation and modulation (§V, Alg. 2), in closed form.

Per block, given param_S/param_L and sketch0:

1. **Case 5** — ``dev = |S|/|L|`` inside :data:`DEV_CASE5`: sketch0 is
   already the data division optimum, return it (Alg. 2 lines 1–4).
2. ``D⁰ = c − sketch0`` with c the uniform S∪L mean (Theorem 3's f(0));
   classify into Cases 1–4 from ``sign(D⁰)`` and ``|S| vs |L|`` (§V-B/C).
3. Algorithm 2 then shrinks |D| by η per round, the two estimators
   taking steps in the ratio λ per the case's strategy, until |D| ≤ thr.
   After n rounds the steps sum to ``|D⁰|·g`` with ``g = 1 − ηⁿ``, so the
   block answer is stated directly (:func:`algorithm2`):

   * Cases 2/3 (consistent indicators, the common path): the estimators
     move toward each other, the l-estimator taking the λ-shorter step:
     ``c − D⁰·g·λ/(1+λ)``, which tends to ``(c + λ·sketch0)/(1 + λ)``.
   * Cases 1/4 (unbalanced sampling, rare): both move the same way, the
     l-estimator taking the λ-longer step past sketch0 toward μ
     (Theorem 1's second picture): ``c − D⁰·g/(1−λ)``.
4. :func:`modulate_block` clamps that answer to the sketch confidence
   interval ``sketch0 ± t_e·e`` — the modulation boundary of §VII-B.

The answer never reads Theorem 3's k, the leverage allocating parameter
q or α; those stay in ``tests/paper_reference.py`` as paper-fidelity
references. The literal §V-C Case-3 reading, which DESIGN.md §2 rejects,
is kept only as a test reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.config import ISLAConfig
from repro.core.moments import RegionMoments

#: Band of dev = |S|/|L| treated as |S| ≈ |L| → return sketch0 (Case 5);
#: the paper suggests "(0.99, 1.01)".
DEV_CASE5 = (0.99, 1.01)


@dataclass(frozen=True)
class BlockAnswer:
    """Outcome of Phase 2 on one block (diagnostics included)."""

    partial: float
    case: int
    dev: float
    u: int
    v: int
    c: float
    d0: float
    iters: int
    clamped: bool


def classify_case(d0: float, u: int, v: int) -> int:
    """Cases 1–4 of §V-C from the two deviation indicators (§V-B)."""
    if d0 < 0:
        return 1 if u < v else 2
    return 3 if u < v else 4


def iteration_upper_bound(d0: float, thr: float, eta: float = 0.5) -> int:
    """§VI-B: the number of rounds n until ``|D⁰|·ηⁿ ≤ thr``.

    The paper's ``⌈log_{1/η}(|D⁰|/thr)⌉`` rounds up one too many at exact
    powers of 1/η (|D⁰| = thr·2²⁹ gives 30), so the count follows |D| as
    Algorithm 2 shrinks it.
    """
    if not math.isfinite(d0):
        raise ValueError(f"D⁰ must be finite, got {d0}")
    d, n = abs(d0), 0
    while d > thr:
        d *= eta
        n += 1
    return n


def algorithm2(
    m_s: RegionMoments,
    m_l: RegionMoments,
    sketch0: float,
    cfg: ISLAConfig,
) -> BlockAnswer:
    """Algorithm 2's answer on one block, before the §VII-B clamp."""
    u, v = m_s.n, m_l.n
    if u == 0 or v == 0:
        # One side of the distribution produced no samples — the data
        # boundaries give no dev signal; fall back to the sketch.
        return BlockAnswer(sketch0, 5, math.inf if v == 0 else 0.0,
                           u, v, 0.0, 0.0, 0, False)
    dev = u / v
    if DEV_CASE5[0] < dev < DEV_CASE5[1]:
        return BlockAnswer(sketch0, 5, dev, u, v, 0.0, 0.0, 0, False)

    c = (m_s.s1 + m_l.s1) / (u + v)
    d0 = c - sketch0
    if d0 == 0.0:
        return BlockAnswer(c, 5, dev, u, v, c, 0.0, 0, False)
    case = classify_case(d0, u, v)

    lam = cfg.lam
    iters = iteration_upper_bound(d0, cfg.threshold, cfg.eta)
    g = 1.0 - cfg.eta**iters
    if case in (1, 4):
        partial = c - d0 * g / (1.0 - lam)
    else:
        partial = c - d0 * g * lam / (1.0 + lam)
    return BlockAnswer(partial, case, dev, u, v, c, d0, iters, False)


def modulate_block(
    m_s: RegionMoments,
    m_l: RegionMoments,
    sketch0: float,
    cfg: ISLAConfig,
) -> BlockAnswer:
    """Phase 2: :func:`algorithm2` clamped to ``sketch0 ± t_e·e`` (§VII-B)."""
    ans = algorithm2(m_s, m_l, sketch0, cfg)
    radius = cfg.t_e * cfg.e
    lo, hi = sketch0 - radius, sketch0 + radius
    if ans.partial < lo or ans.partial > hi:
        return replace(ans, partial=min(max(ans.partial, lo), hi), clamped=True)
    return ans
