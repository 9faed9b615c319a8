"""Pre-estimation module (§III) — sampling rate and sketch estimator.

Two pilot samples:

1. the σ-pilot (about :data:`PILOT_N` rows, proportional per block)
   estimates the overall standard deviation σ̂ (Eq. 1 input) and the
   per-block σ̂_j used by the §VII-C non-iid extension, from centred
   :class:`~repro.core.moments.RegionMoments` (so σ̂ stays exact at any
   |mean|/σ);
2. the sketch pilot, sized by Eq. (1) at the relaxed precision ``t_e·e``
   (i.e. ``m/t_e²`` rows), produces ``sketch0`` globally and per block.

Block sizes |B_j| are metadata the paper assumes known ("M could be
easily obtained from the meta data"). They count the non-null values of
a block, as SQL ``AVG`` does; a block of size 0 holds no value and is
dropped.

The pilot fractions need M, and the sketch fraction needs σ̂, so taken
literally the count and the two pilots are three scans, each waiting for
the one before. One scan serves all three instead, by permanent random
numbers (Ohlsson 1995): every row gets one uniform ``u`` from
:func:`~repro.core.moments.row_uniform`, and the rows with ``u ≤ 2^-j``
are a Bernoulli sample at fraction ``2^-j``. :func:`compute_block_sizes`
aggregates the whole input by (block, octave of ``u``); the driver then
reads |B_j| as the count over every octave, and each pilot as a union of
octaves. Each pilot fraction is rounded up to a power of two, so the
pilots are never smaller than planned, and the two pilots are disjoint
slices of the one stream (DESIGN.md §2).
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.config import ISLAConfig
from repro.core.moments import RegionMoments, row_uniform, sampled_moments

#: Size of the small σ-pilot set (§III-A); §VIII-G uses 1000 samples.
PILOT_N = 1000

#: ``row_uniform`` draws 53 random bits, so a non-zero ``u`` is at least
#: 2⁻⁵³ and its octave at most 53; ``u = 0`` goes to this octave too.
DEEPEST_OCTAVE = 53


def octave_column(seed: int) -> Column:
    """``floor(−log2 u)`` of ``u = row_uniform(seed)``: octave j holds
    the rows with ``2^-(j+1) < u ≤ 2^-j``, so octaves ``≥ j`` are the rows
    with ``u ≤ 2^-j``. ``log2(0)`` is null in Spark, hence the coalesce."""
    octave = F.floor(-F.log2(row_uniform(seed))).cast("int")
    return F.coalesce(octave, F.lit(DEEPEST_OCTAVE)).alias("__octave")


def octave_of(f: float) -> int:
    """The octave j with ``f ≤ 2^-j < 2f``: ``2^-j`` is the smallest
    power of two at or above ``f``, for ``f`` in (0, 1]."""
    mantissa, exponent = math.frexp(f)  # f = mantissa·2^exponent, mantissa in [0.5, 1)
    return -exponent + (mantissa == 0.5)


def sigma_pilot_octaves(M: int, b: int) -> range:
    """Octaves of the σ-pilot: ``u ≤ 2^-j_p`` with ``2^-j_p`` the smallest
    power of two at or above ``max(PILOT_N, 30b)/M``, so the pilot plans
    between 1× and 2× that many rows (all of them when the bound passes 1)."""
    j_p = min(octave_of(min(1.0, max(PILOT_N, 30 * b) / M)), DEEPEST_OCTAVE)
    return range(j_p, DEEPEST_OCTAVE + 1)


def sketch_pilot_octaves(pilot: range, m_sketch: int, M: int) -> range:
    """Octaves of the sketch pilot: the rows with ``2^-j_p < u ≤ 2^-j_s``,
    ``2^-j_s`` the smallest power of two at or above ``2^-j_p + m_sketch/M``.

    That is a Bernoulli sample at fraction ``2^-j_s − 2^-j_p ≥ m_sketch/M``
    that shares no row with the σ-pilot. When the σ-pilot is the whole
    block (``j_p = 0``) or the bound passes 1, no disjoint slice is large
    enough, and the sketch pilot is the whole block.
    """
    j_p = pilot.start
    bound = 2.0**-j_p + m_sketch / M
    if j_p == 0 or bound > 1.0:
        return range(0, DEEPEST_OCTAVE + 1)
    # A bound within an ulp of 2^-j_p would round onto it.
    return range(min(octave_of(bound), j_p - 1), j_p)


@dataclass(frozen=True)
class OctaveScan:
    """The pre-estimation scan: per block, the :class:`RegionMoments` of
    the values in each octave of ``row_uniform(seed)``."""

    by_block: dict  # {block: {octave: RegionMoments}}

    @property
    def sizes(self) -> dict:
        """|B_j|: the non-null values of each block, over every octave."""
        return {b: sum(m.n for m in octs.values()) for b, octs in self.by_block.items()}

    def moments(self, octaves: range) -> dict:
        """Per block, the moments of the values in ``octaves`` (merged by
        Chan's rule); a block with no such value is left out."""
        out = {}
        for blk, octs in self.by_block.items():
            chosen = (octs[j] for j in sorted(octs) if j in octaves)
            mo = reduce(RegionMoments.merge, chosen, RegionMoments.empty())
            if mo.n:
                out[blk] = mo
        return out


def compute_block_sizes(
    df: DataFrame, value_col: str, block_col: str, *, seed: int = 0
) -> OctaveScan:
    """The one scan of pre-estimation: :func:`sampled_moments` of the
    whole input grouped by (block, octave of ``row_uniform(seed)``).

    Its :attr:`OctaveScan.sizes` are |B_j|, and its octaves hold both
    pilots (module docstring). The name predates the pilots joining the
    scan; it stays because benchmarks time the block-size layer under
    it, and :func:`pre_estimate` looks it up at call time so that a
    wrapper installed on this module sees every call.
    """
    moments = sampled_moments(
        df, value_col, 1.0, seed, by=(block_col, octave_column(seed))
    )
    by_block: dict = {}
    for (blk, octave), mo in moments.items():
        by_block.setdefault(blk, {})[octave] = mo
    return OctaveScan(by_block)


@dataclass(frozen=True)
class PreEstimate:
    """Everything the Calculation module needs, from §III.

    Attributes
    ----------
    sigma : overall estimated standard deviation σ̂.
    sketch0 : global initial sketch estimator (relaxed precision t_e·e).
    m : Eq. (1) required sample size for the desired precision e.
    rate : global sampling rate r = m/M (capped at 1).
    m_sketch : sample size planned for sketch0 (= m/t_e²).
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


def pre_estimate(
    df: DataFrame,
    value_col: str,
    block_col: str,
    cfg: ISLAConfig,
    *,
    block_sizes: Mapping[object, int] | None = None,
    seed: int = 0,
) -> PreEstimate:
    """Run the Pre-estimation module (§III-A, §III-B) on one scan.

    Given ``block_sizes`` are used as they are; otherwise the scan counts
    them. Blocks of size 0 are dropped: they hold no value, so they carry
    no weight and get no partial. Null values count nowhere, as SQL
    ``AVG`` drops them: |B_j|, the pilot counts and so every block weight
    count values, not rows. A NaN or infinite value raises
    ``ValueError``, since no sampled answer can stand for it.
    """
    if block_sizes is not None and min(block_sizes.values(), default=0) < 0:
        raise ValueError("block sizes must be non-negative")
    scan = compute_block_sizes(df, value_col, block_col, seed=seed)
    for octs in scan.by_block.values():
        if not all(math.isfinite(m.mean) and math.isfinite(m.m2) for m in octs.values()):
            raise ValueError(f"column {value_col!r} holds NaN or infinite values")
    sizes = {
        blk: size
        for blk, size in (scan.sizes if block_sizes is None else block_sizes).items()
        if size
    }
    if not sizes:
        raise ValueError("input has no blocks")
    M = sum(sizes.values())

    # σ-pilot: about PILOT_N rows overall, proportional per block, since
    # every block's rows share one fraction.
    pilot_octaves = sigma_pilot_octaves(M, len(sizes))
    pilot = scan.moments(pilot_octaves)
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
    sk = scan.moments(sketch_pilot_octaves(pilot_octaves, m_sketch, M))
    sketch_by_block = {blk: mo.mean for blk, mo in sk.items()}
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
