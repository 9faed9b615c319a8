"""Data boundaries and the five regions TS/S/N/L/TL (§IV-A1).

The boundaries are built from ``sketch0`` and the estimated σ with the
parameters p1 < p2 (defaults 0.5 / 2.0):

* TS: (−∞, sketch0 − p2σ]          — "too small" outliers, discarded
* S : (sketch0 − p2σ, sketch0 − p1σ) — small data, participates
* N : [sketch0 − p1σ, sketch0 + p1σ] — normal data, discarded
* L : (sketch0 + p1σ, sketch0 + p2σ) — large data, participates
* TL: [sketch0 + p2σ, +∞)          — "too large" outliers, discarded

The classifier is a Spark ``Column`` (Algorithm 1's distributed
tagging) over the bound *columns*: literals when every block shares one
set of boundaries (the base algorithm, and MV/MVB), columns of a
broadcast-joined bounds table for per-block boundaries (§VII-C non-iid
extension).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from pyspark.sql import Column
from pyspark.sql import functions as F


class Region(str, Enum):
    """The five data regions of Fig. 3."""

    TS = "TS"
    S = "S"
    N = "N"
    L = "L"
    TL = "TL"


@dataclass(frozen=True)
class DataBoundaries:
    """Region boundaries derived from a sketch estimate and σ."""

    sketch0: float
    sigma: float
    p1: float = 0.5
    p2: float = 2.0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not 0.0 < self.p1 < self.p2:
            raise ValueError(
                f"need 0 < p1 < p2, got p1={self.p1}, p2={self.p2}"
            )

    @property
    def s_lower(self) -> float:
        """Lower edge of S = upper edge of TS: sketch0 − p2σ."""
        return self.sketch0 - self.p2 * self.sigma

    @property
    def s_upper(self) -> float:
        """Upper edge of S = lower edge of N: sketch0 − p1σ."""
        return self.sketch0 - self.p1 * self.sigma

    @property
    def l_lower(self) -> float:
        """Lower edge of L = upper edge of N: sketch0 + p1σ."""
        return self.sketch0 + self.p1 * self.sigma

    @property
    def l_upper(self) -> float:
        """Upper edge of L = lower edge of TL: sketch0 + p2σ."""
        return self.sketch0 + self.p2 * self.sigma


def region_column(
    value: Column,
    s_lower: Column,
    s_upper: Column,
    l_lower: Column,
    l_upper: Column,
) -> Column:
    """Spark expression tagging each row with its region name.

    Bound arguments are columns so that per-block boundaries (non-iid
    mode) come from a joined bounds table; for the iid case they are
    simply literals.
    """
    return (
        F.when(value <= s_lower, Region.TS.value)
        .when(value < s_upper, Region.S.value)
        .when(value <= l_lower, Region.N.value)
        .when(value < l_upper, Region.L.value)
        .otherwise(Region.TL.value)
    )


def region_column_for(bounds: DataBoundaries, value: Column) -> Column:
    """Region tag for global (iid) boundaries."""
    return region_column(
        value,
        F.lit(bounds.s_lower),
        F.lit(bounds.s_upper),
        F.lit(bounds.l_lower),
        F.lit(bounds.l_upper),
    )
