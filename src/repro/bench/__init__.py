"""Experiment harness: regenerates every table and figure of the paper."""

from repro.bench.experiments import EXPERIMENTS
from repro.bench.render import ExperimentResult, format_table
from repro.bench.workloads import (
    EXTENDED_MEMORY_FRACTIONS,
    LA_MEMORY_FRACTION,
    MEMORY_FRACTIONS,
    REDUCED_MEMORY_FRACTIONS,
    input_bytes,
    j5_inputs,
    la_join,
    la_memory,
    la_p_sweep,
    memory_for_fraction,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "EXTENDED_MEMORY_FRACTIONS",
    "LA_MEMORY_FRACTION",
    "MEMORY_FRACTIONS",
    "REDUCED_MEMORY_FRACTIONS",
    "format_table",
    "input_bytes",
    "j5_inputs",
    "la_join",
    "la_memory",
    "la_p_sweep",
    "memory_for_fraction",
]
