"""The repo benchmark: four end-to-end workloads, timed from the outside.

``python3 -m benchmarks.e2e`` runs the whole benchmark and prints every
metric with its unit; ``--workload NAME --seed N --seconds S --trace 0|1``
runs one workload and ends with one JSON line (the ``BENCHMARK.json``
contract).  See ``README.md`` in this directory for the workloads, the
metrics, how the per-layer numbers relate to the end-to-end ones, and
the sizing hazards that shaped the design.

Nothing here is imported by ``src/``; the package only *calls* the
program's public functions and times them from the outside.
"""

import sys
from pathlib import Path

#: The checkout the benchmark runs in (``benchmarks/e2e`` -> repo root).
REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

# The driver runs the benchmark from a bare checkout with no PYTHONPATH,
# so the program under test is imported from the checkout's own ``src``.
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
