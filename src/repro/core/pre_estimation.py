"""Pre-estimation module (§III) — sampling rate and sketch estimator.

Two pilot passes over small uniform samples:

1. the σ-pilot (:data:`PILOT_N` rows, proportional per block) estimates the
   overall standard deviation σ̂ (Eq. 1 input) and the per-block σ̂_j used
   by the §VII-C non-iid extension, from the per-block
   :class:`~repro.core.moments.RegionMoments` of :func:`sampled_moments`
   (centred, so σ̂ stays exact at any |mean|/σ);
2. the sketch-pilot, sized by Eq. (1) at the relaxed precision ``t_e·e``
   (i.e. ``m/t_e²`` rows), produces ``sketch0`` globally and per block.

Block sizes |B_j| are treated as metadata the paper assumes known
("M could be easily obtained from the meta data"); callers either pass
them or this module computes them once with a count job. They count the
non-null values of a block, as SQL ``AVG`` does; a block of size 0 holds
no value and is dropped.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.config import ISLAConfig
from repro.core.moments import RegionMoments, sampled_moments

#: Size of the small σ-pilot set (§III-A); §VIII-G uses 1000 samples.
PILOT_N = 1000


@dataclass(frozen=True)
class PreEstimate:
    """Everything the Calculation module needs, from §III.

    Attributes
    ----------
    sigma : overall estimated standard deviation σ̂.
    sketch0 : global initial sketch estimator (relaxed precision t_e·e).
    m : Eq. (1) required sample size for the desired precision e.
    rate : global sampling rate r = m/M (capped at 1).
    m_sketch : sample size used for sketch0 (= m/t_e²).
    block_sizes : |B_j| metadata.
    M : Σ|B_j|.
    pilot : per-block σ-pilot :class:`RegionMoments` (n, mean, m2, std).
    sketch_by_block : per-block sketch estimates (non-iid boundaries).
    sigma_by_block : per-block σ̂_j (non-iid boundaries and blev rates).
    """

    sigma: float
    sketch0: float
    m: int
    rate: float
    m_sketch: int
    block_sizes: dict = field(repr=False)
    M: int
    pilot: dict = field(repr=False)
    sketch_by_block: dict = field(repr=False)
    sigma_by_block: dict = field(repr=False)

    def uniform_fractions(self, rate: float) -> dict:
        """The same sampling fraction for every block (iid mode)."""
        return {b: min(1.0, rate) for b in self.block_sizes}

    def blev_fractions(self, rate_factor: float = 1.0) -> dict:
        """§VII-C non-iid sampling rates from block leverages.

        ``blev_j = (1 + σ_j²)/(b + Σσ_i²)`` and
        ``rate_j = r·M·blev_j/|B_j|`` — blocks with higher local variance
        are sampled more; the +1/+b terms keep every rate positive.
        """
        b = len(self.block_sizes)
        tot = sum(s * s for s in self.sigma_by_block.values())
        out = {}
        for blk, size in self.block_sizes.items():
            s = self.sigma_by_block[blk]
            blev = (1.0 + s * s) / (b + tot)
            out[blk] = min(1.0, rate_factor * self.rate * self.M * blev / size)
        return out


def compute_block_sizes(df: DataFrame, block_col: str) -> dict:
    """|B_j| metadata via one count job (substitute for catalog metadata)."""
    rows = df.groupBy(block_col).count().collect()
    return {r[block_col]: int(r["count"]) for r in rows}


def pre_estimate(
    df: DataFrame,
    value_col: str,
    block_col: str,
    cfg: ISLAConfig,
    *,
    block_sizes: Mapping[object, int] | None = None,
    seed: int = 0,
) -> PreEstimate:
    """Run the Pre-estimation module (§III-A, §III-B).

    Blocks of size 0 in ``block_sizes`` are dropped first: they hold no
    value, so they carry no weight and get no partial. Null values are
    dropped next, as SQL ``AVG`` drops them: |B_j|, the pilot counts and
    so every block weight count values, not rows.
    """
    if block_sizes is not None and min(block_sizes.values(), default=0) < 0:
        raise ValueError("block sizes must be non-negative")
    df = df.where(F.col(value_col).isNotNull())
    sizes = (
        {blk: size for blk, size in block_sizes.items() if size}
        if block_sizes is not None
        else compute_block_sizes(df, block_col)
    )
    if not sizes:
        raise ValueError("input has no blocks")
    M = sum(sizes.values())

    # σ-pilot: ~PILOT_N rows overall, proportional per block via a single
    # uniform fraction (proportional allocation is automatic).
    b = len(sizes)
    pilot_fraction = min(1.0, max(PILOT_N, 30 * b) / M)
    pilot = {
        blk: mo
        for (blk,), mo in sampled_moments(
            df, value_col, pilot_fraction, seed, by=(block_col,)
        ).items()
    }
    if not pilot:
        raise ValueError("pilot sample is empty")
    # Pooled σ̂: combine per-block second moments around the global mean.
    n_tot = sum(p.n for p in pilot.values())
    mean_hat = sum(p.mean * p.n for p in pilot.values()) / n_tot
    var_hat = (
        sum((p.std**2 + (p.mean - mean_hat) ** 2) * p.n for p in pilot.values())
        / n_tot
    )
    sigma = math.sqrt(max(var_hat, 0.0))

    m = cfg.sample_size(sigma)
    rate = min(1.0, m / M)
    m_sketch = max(1, cfg.sketch_sample_size(sigma))

    # Sketch pilot at the relaxed precision t_e·e (§III-B): uniform
    # samples per block proportional to block size. When m_sketch is 1
    # (σ̂ = 0, or e ≳ 0.53σ̂) it can come back empty; sketch0 then falls
    # back to the σ-pilot mean, as the per-block sketches fall back to
    # sketch0 below.
    sketch_fraction = min(1.0, m_sketch / M)
    sk = sampled_moments(df, value_col, sketch_fraction, seed + 1, by=(block_col,))
    sketch_by_block = {blk: mo.mean for (blk,), mo in sk.items()}
    merged = reduce(RegionMoments.merge, sk.values(), RegionMoments.empty())
    sketch0 = merged.mean if merged.n else mean_hat

    # Blocks the sketch pilot happened to miss fall back to the global
    # sketch; same for per-block σ.
    sigma_by_block = {blk: pilot[blk].std if blk in pilot else sigma for blk in sizes}
    for blk in sizes:
        sketch_by_block.setdefault(blk, sketch0)

    return PreEstimate(
        sigma=sigma,
        sketch0=sketch0,
        m=m,
        rate=rate,
        m_sketch=m_sketch,
        block_sizes=sizes,
        M=M,
        pilot=pilot,
        sketch_by_block=sketch_by_block,
        sigma_by_block=sigma_by_block,
    )
