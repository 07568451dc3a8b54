"""The named datasets and joins of the paper's evaluation.

Table 1 datasets (LA_RR, LA_ST, their ``(p)``-scaled variants, CAL_ST) and
Table 2 joins (J1..J5) are reconstructed at a configurable *scale*: the
fraction of the paper's cardinality to generate.  Coverage is calibrated to
the Table 1 value independent of scale, so replication rates and relative
selectivities track the paper across scales.

The default scale keeps pure-Python experiment sweeps tractable; set the
``REPRO_SCALE`` environment variable (or pass ``scale=``) to change it.
Generated datasets are memoised per process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.rect import KPE
from repro.datasets.synthetic import polyline_mbrs
from repro.datasets.transform import scale_edges, scale_to_coverage

#: Table 1 cardinalities.
PAPER_CARDINALITY: Dict[str, int] = {
    "LA_RR": 128_971,
    "LA_ST": 131_461,
    "CAL_ST": 1_888_012,
}

#: Table 1 coverage values.
PAPER_COVERAGE: Dict[str, float] = {
    "LA_RR": 0.22,
    "LA_ST": 0.03,
    "CAL_ST": 0.12,
}

#: Fixed seeds so every run of the suite sees identical data.
_SEEDS: Dict[str, int] = {"LA_RR": 101, "LA_ST": 202, "CAL_ST": 303}

#: Paper result counts for Table 2 (for side-by-side reporting).
PAPER_JOIN_RESULTS: Dict[str, int] = {
    "J1": 85_854,
    "J2": 305_537,
    "J3": 671_775,
    "J4": 1_195_527,
    "J5": 9_784_072,
}

DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "0.10"))

#: CAL_ST is ~14x larger than the LA files; this extra factor keeps the J5
#: sweeps (many runs per figure) tractable in pure Python while preserving
#: "much larger than the LA joins".
CAL_EXTRA_FACTOR = float(os.environ.get("REPRO_CAL_FACTOR", "0.25"))

_CACHE: Dict[Tuple[str, int, float], List[KPE]] = {}


def dataset(name: str, scale: Optional[float] = None, p: float = 1.0) -> List[KPE]:
    """A named Table 1 dataset, generated at *scale* of paper cardinality.

    ``p`` applies the paper's edge-scaling operator (LA_RR(p), LA_ST(p)).
    """
    base = _base_dataset(name, scale)
    if p == 1.0:
        return base
    return scale_edges(base, p)


def dataset_cardinality(name: str, scale: Optional[float] = None) -> int:
    """The cardinality :func:`dataset` will generate for *name*."""
    if name not in PAPER_CARDINALITY:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {sorted(PAPER_CARDINALITY)}"
        )
    effective = DEFAULT_SCALE if scale is None else scale
    if name == "CAL_ST":
        effective *= CAL_EXTRA_FACTOR
    return max(64, int(PAPER_CARDINALITY[name] * effective))


def _base_dataset(name: str, scale: Optional[float]) -> List[KPE]:
    n = dataset_cardinality(name, scale)
    key = (name, n, PAPER_COVERAGE[name])
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    raw = polyline_mbrs(n, seed=_SEEDS[name])
    calibrated = scale_to_coverage(raw, PAPER_COVERAGE[name], min_edge=1e-5)
    _CACHE[key] = calibrated
    return calibrated


@dataclass(frozen=True)
class JoinSpec:
    """One Table 2 join: input dataset names and edge-scale factor."""

    name: str
    left: str
    right: str
    p: float = 1.0

    def inputs(
        self, scale: Optional[float] = None
    ) -> Tuple[List[KPE], List[KPE]]:
        """Materialise (R, S).  A self join returns the same list twice."""
        left = dataset(self.left, scale, self.p)
        if self.left == self.right:
            return left, left
        return left, dataset(self.right, scale, self.p)


JOINS: Dict[str, JoinSpec] = {
    "J1": JoinSpec("J1", "LA_RR", "LA_ST", 1.0),
    "J2": JoinSpec("J2", "LA_RR", "LA_ST", 2.0),
    "J3": JoinSpec("J3", "LA_RR", "LA_ST", 3.0),
    "J4": JoinSpec("J4", "LA_RR", "LA_ST", 4.0),
    "J5": JoinSpec("J5", "CAL_ST", "CAL_ST", 1.0),
}


def join_inputs(
    join_name: str, scale: Optional[float] = None
) -> Tuple[List[KPE], List[KPE]]:
    """Materialise the inputs of a Table 2 join by name."""
    try:
        spec = JOINS[join_name]
    except KeyError:
        raise ValueError(
            f"unknown join {join_name!r}; choose from {sorted(JOINS)}"
        ) from None
    return spec.inputs(scale)


def la_pair(p: float, scale: Optional[float] = None) -> Tuple[List[KPE], List[KPE]]:
    """The Figure 13 workload: (LA_RR(p), LA_ST(p))."""
    return dataset("LA_RR", scale, p), dataset("LA_ST", scale, p)
