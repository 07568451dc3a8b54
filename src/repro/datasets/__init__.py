"""Dataset substrate: synthetic TIGER-like generators, transforms, catalog."""

from repro.datasets.catalog import (
    CAL_EXTRA_FACTOR,
    DEFAULT_SCALE,
    JOINS,
    JoinSpec,
    PAPER_CARDINALITY,
    PAPER_COVERAGE,
    PAPER_JOIN_RESULTS,
    dataset,
    dataset_cardinality,
    join_inputs,
    la_pair,
)
from repro.datasets.fileio import (
    load_relation,
    read_csv,
    read_npy,
    save_relation,
    write_csv,
    write_npy,
)
from repro.datasets.patterns import manhattan_grid, mixed_scale, radial_city
from repro.datasets.stats import DatasetSummary, coverage, summarize
from repro.datasets.synthetic import (
    clustered_rects,
    polyline_mbrs,
    uniform_rects,
    zipf_rects,
)
from repro.datasets.transform import scale_edges, scale_to_coverage

#: The synthetic generators by name: ``repro generate --pattern``,
#: ``repro build --pattern``, the service's ``register`` op and the load
#: harness.
PATTERNS = {
    "tiger": polyline_mbrs,
    "uniform": uniform_rects,
    "clustered": clustered_rects,
    "manhattan": manhattan_grid,
    "radial": radial_city,
    "mixed": mixed_scale,
    "zipf": zipf_rects,
}

__all__ = [
    "CAL_EXTRA_FACTOR",
    "DEFAULT_SCALE",
    "DatasetSummary",
    "JOINS",
    "JoinSpec",
    "PAPER_CARDINALITY",
    "PAPER_COVERAGE",
    "PAPER_JOIN_RESULTS",
    "PATTERNS",
    "clustered_rects",
    "coverage",
    "dataset",
    "dataset_cardinality",
    "join_inputs",
    "la_pair",
    "load_relation",
    "manhattan_grid",
    "mixed_scale",
    "polyline_mbrs",
    "radial_city",
    "read_csv",
    "read_npy",
    "save_relation",
    "scale_edges",
    "scale_to_coverage",
    "summarize",
    "uniform_rects",
    "write_csv",
    "write_npy",
    "zipf_rects",
]
