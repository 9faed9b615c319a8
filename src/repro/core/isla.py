"""End-to-end ISLA driver: Pre-estimation → Calculation → Summarization.

``isla_avg`` wires the three modules of Fig. 2 together as Spark jobs:

1. :func:`repro.core.pre_estimation.pre_estimate` — pilot jobs for σ̂,
   sketch0 and the Eq. (1) rate;
2. :func:`repro.core.moments.sample_region_moments` — Phase 1 per-block
   sampling + S/L moment accumulation (Algorithm 1);
3. :func:`repro.core.iteration.modulate_block` — Phase 2 per-block
   modulation (Algorithm 2) in closed form, driver-side;
4. Summarization (§II-C): final = Σ avg_j·|B_j| / M.

The paper's footnote 1 translates negative data to be positive first.
Every step above commutes with a translation — boundaries, c and sketch0
move with the data, dev and the case do not change, and the partial is
c plus a multiple of ``c − sketch0`` — so the answer needs no shift.

Modes:

* ``rate_factor`` scales the main sampling rate (Table V runs ISLA at
  r/3);
* ``non_iid=True`` switches on the §VII-C extension — per-block
  boundaries from per-block sketch/σ and blev-weighted sampling rates.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.core.boundaries import DataBoundaries
from repro.core.config import ISLAConfig
from repro.core.iteration import BlockAnswer, modulate_block
from repro.core.moments import RegionMoments, sample_region_moments
from repro.core.pre_estimation import PreEstimate, pre_estimate


@dataclass(frozen=True)
class ISLAResult:
    """Final answer plus full diagnostics of one ISLA run."""

    answer: float
    sketch0: float
    pre: PreEstimate = field(repr=False)
    blocks: dict = field(repr=False)  # {block: BlockAnswer}
    rate_used: float

    @property
    def partials(self) -> dict:
        """{block: partial answer} — the avg_j of §II-C."""
        return {b: a.partial for b, a in self.blocks.items()}

    @property
    def samples_participating(self) -> int:
        """Total S∪L samples that entered the computation."""
        return sum(a.u + a.v for a in self.blocks.values())


def summarize(partials: Mapping[object, float], block_sizes: Mapping[object, int]) -> float:
    """Summarization module: Σ avg_j·|B_j| / M (§II-C)."""
    M = sum(block_sizes[b] for b in partials)
    if M == 0:
        raise ValueError("no data in any block")
    return sum(p * block_sizes[b] for b, p in partials.items()) / M


def isla_avg(
    df: DataFrame,
    value_col: str,
    block_col: str,
    cfg: ISLAConfig | None = None,
    *,
    rate_factor: float = 1.0,
    non_iid: bool = False,
    block_sizes: Mapping[object, int] | None = None,
    pre: PreEstimate | None = None,
    seed: int = 0,
) -> ISLAResult:
    """Approximate ``AVG(value_col)`` of ``df`` with the ISLA scheme.

    Parameters
    ----------
    df : input relation; one row per data point.
    value_col : numeric column to average.
    block_col : column identifying the storage block (§II-C).
    cfg : ISLA parameters; defaults to :class:`ISLAConfig`.
    rate_factor : positive, finite multiplier on the Eq. (1) rate for the
        main phase (e.g. 1/3 for the Table V evaluation); above 1 it
        oversamples, each block's fraction capped at all of its rows.
    non_iid : enable the §VII-C extension (per-block boundaries + blev
        sampling rates).
    block_sizes : |B_j| metadata, the number of non-null values of
        ``value_col`` in block j; computed with a count job if absent.
    pre : reuse an existing pre-estimation (lets baselines share the
        same pilot, as in the paper's comparisons).
    seed : sampling seed (pilot seeds derive from it).
    """
    if not 0.0 < rate_factor < math.inf:
        raise ValueError(f"rate_factor must be positive and finite, got {rate_factor}")
    cfg = cfg or ISLAConfig()
    if pre is None:
        pre = pre_estimate(
            df, value_col, block_col, cfg, block_sizes=block_sizes, seed=seed
        )

    # In iid mode every block shares the global sketch0/σ̂, in non-iid
    # mode each block gets its own (§VII-C "different data boundaries").
    if non_iid:
        bounds = {
            b: DataBoundaries(
                pre.sketch_by_block[b], pre.sigma_by_block[b], cfg.p1, cfg.p2
            )
            for b in pre.block_sizes
        }
        fractions = pre.blev_fractions(rate_factor)
    else:
        g = DataBoundaries(pre.sketch0, pre.sigma, cfg.p1, cfg.p2)
        bounds = {b: g for b in pre.block_sizes}
        fractions = pre.uniform_fractions(pre.rate * rate_factor)

    moments = sample_region_moments(
        df, value_col, block_col, fractions, bounds, seed=seed + 2
    )

    blocks: dict[object, BlockAnswer] = {}
    for b in pre.block_sizes:
        m_s, m_l = moments.get(b, (RegionMoments.empty(), RegionMoments.empty()))
        blocks[b] = modulate_block(m_s, m_l, bounds[b].sketch0, cfg)

    answer = summarize({b: a.partial for b, a in blocks.items()}, pre.block_sizes)
    return ISLAResult(
        answer=answer,
        sketch0=pre.sketch0,
        pre=pre,
        blocks=blocks,
        rate_used=pre.rate * rate_factor,
    )
