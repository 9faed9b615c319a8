"""The paper's primary contribution: the ISLA approximate-AVG system.

Modules mirror the paper's architecture (Fig. 2):

* :mod:`repro.core.config` — parameters (Table I) and confidence math.
* :mod:`repro.core.pre_estimation` — Pre-estimation module (§III).
* :mod:`repro.core.boundaries` — data boundaries / regions (§IV-A1).
* :mod:`repro.core.leverage` — leverages, probabilities, Theorem 3 (§IV).
* :mod:`repro.core.moments` — Phase 1 sampling job (Algorithm 1, §VI-A).
* :mod:`repro.core.iteration` — Phase 2 modulation, closed form (Algorithm 2, §V/§VI-B).
* :mod:`repro.core.isla` — end-to-end driver + Summarization module (§II-C).
"""

from repro.core.config import ISLAConfig, z_score
from repro.core.boundaries import DataBoundaries, Region
from repro.core.moments import RegionMoments
from repro.core.isla import ISLAResult, isla_avg

__all__ = [
    "ISLAConfig",
    "z_score",
    "DataBoundaries",
    "Region",
    "RegionMoments",
    "ISLAResult",
    "isla_avg",
]
