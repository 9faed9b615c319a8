"""Pre-estimation module (§III) — sampling rate and sketch estimator.

Two pilot passes over small uniform samples:

1. the σ-pilot (``pilot_n`` rows, proportional per block) estimates the
   overall standard deviation σ̂ (Eq. 1 input) and the per-block σ̂_j used
   by the §VII-C non-iid extension;
2. the sketch-pilot, sized by Eq. (1) at the relaxed precision ``t_e·e``
   (i.e. ``m/t_e²`` rows), produces ``sketch0`` globally and per block.

Block sizes |B_j| are treated as metadata the paper assumes known
("M could be easily obtained from the meta data"); callers either pass
them or this module computes them once with a count job. They count the
non-null values of a block, as SQL ``AVG`` does.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.config import ISLAConfig


@dataclass(frozen=True)
class BlockPilot:
    """Per-block statistics from the σ-pilot sample."""

    n: int
    mean: float
    std: float


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
    pilot : per-block σ-pilot stats (count/mean/std).
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


def _pilot_stats(
    df: DataFrame,
    value_col: str,
    block_col: str,
    fraction: float,
    seed: int,
) -> dict:
    """Per-block count/mean/std of a uniform sample at ``fraction``."""
    v = F.col(value_col).cast("double")
    rows = (
        df.sample(fraction=min(1.0, fraction), seed=seed)
        .groupBy(block_col)
        .agg(
            F.count("*").alias("n"),
            F.avg(v).alias("mean"),
            F.stddev_samp(v).alias("std"),
        )
        .collect()
    )
    return {
        r[block_col]: BlockPilot(
            int(r["n"]),
            float(r["mean"]),
            float(r["std"]) if r["std"] is not None else 0.0,
        )
        for r in rows
    }


def _weighted(stats: Mapping[object, tuple[float, int]]) -> float:
    """Sample-count-weighted mean of per-block values."""
    tot = sum(n for _, n in stats.values())
    if tot == 0:
        raise ValueError("pilot sample is empty — increase pilot_n")
    return sum(val * n for val, n in stats.values()) / tot


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

    Null values are dropped first, as SQL ``AVG`` drops them: |B_j|, the
    pilot counts and so every block weight count values, not rows.
    """
    df = df.where(F.col(value_col).isNotNull())
    sizes = (
        dict(block_sizes)
        if block_sizes is not None
        else compute_block_sizes(df, block_col)
    )
    if not sizes:
        raise ValueError("input has no blocks")
    M = sum(sizes.values())

    # σ-pilot: ~pilot_n rows overall, proportional per block via a single
    # uniform fraction (proportional allocation is automatic).
    b = len(sizes)
    pilot_fraction = min(1.0, max(cfg.pilot_n, 30 * b) / M)
    pilot = _pilot_stats(df, value_col, block_col, pilot_fraction, seed)
    if not pilot:
        raise ValueError("pilot sample is empty — increase pilot_n")
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
    # samples per block proportional to block size.
    sketch_fraction = min(1.0, m_sketch / M)
    sk_rows = (
        df.sample(fraction=sketch_fraction, seed=seed + 1)
        .groupBy(block_col)
        .agg(
            F.count("*").alias("n"),
            F.avg(F.col(value_col).cast("double")).alias("mean"),
        )
        .collect()
    )
    sketch_by_block = {r[block_col]: float(r["mean"]) for r in sk_rows}
    sketch0 = _weighted({r[block_col]: (float(r["mean"]), int(r["n"])) for r in sk_rows})

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
