"""PBSM's simulated I/O, in both currencies, against a pinned recording.

The paper prices PBSM in ``PT + n`` page I/O (Sec. 3.1, Fig. 3a).  The
driver charges it from the lengths of its id runs
(:mod:`repro.io.paper_io`); ``pbsm_io_pinned.json`` holds
``io_units_by_phase`` (requests at ``PT`` plus pages) and
``io_pages_by_phase`` (pages alone) as recorded on the commit before
the partitions stopped being ``PageFile`` objects, when every charge
still went through a file.  The workloads are the deep-repartition
runs of ``pbsm_leaf_order_pinned.json`` (``test_pbsm_columnar``), whose
recursion splits partitions several levels down, and the
configurations both engines under both dedup modes at one worker and
RPM at two workers on each executor.

Re-record (only the keys containing every given fragment)::

    PYTHONPATH=src python -m tests.test_pbsm_io_pinned uniform/
"""

import json
import sys
from pathlib import Path

import pytest

from repro import PBSM
from repro.kernels.shm import shm_enabled

from tests.test_pbsm_columnar import BUDGETS, workload

PINNED = Path(__file__).with_name("pbsm_io_pinned.json")

WORKLOADS = ("uniform", "identical")
BUDGET = "deep"

#: ``(internal, dedup, workers, executor)`` of every pinned run.
CONFIGS = (
    ("sweep_list", "rpm", 1, "process"),
    ("sweep_list", "sort", 1, "process"),
    ("sweep_numpy", "rpm", 1, "process"),
    ("sweep_numpy", "sort", 1, "process"),
    ("sweep_numpy", "rpm", 2, "process"),
    ("sweep_numpy", "rpm", 2, "simulated"),
)


def key(name, internal, dedup, workers, executor):
    return f"{name}/{BUDGET}/{internal}/{dedup}/W{workers}/{executor}"


def observe(name, internal, dedup, workers, executor):
    """Both I/O currencies of one run, through JSON (plain floats)."""
    left, right = workload(name)
    stats = PBSM(
        BUDGETS[BUDGET], internal=internal, dedup=dedup, workers=workers,
        executor=executor,
    ).run(left, right).stats
    if workers > 1:
        assert stats.executor == executor
    return json.loads(
        json.dumps(
            {
                "io_units_by_phase": stats.io_units_by_phase,
                "io_pages_by_phase": stats.io_pages_by_phase,
            }
        )
    )


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "/".join(map(str, c)))
@pytest.mark.parametrize("name", WORKLOADS)
def test_io_by_phase_equals_the_pinned_run(name, config):
    internal, dedup, workers, executor = config
    if workers > 1 and executor == "process" and not shm_enabled():
        pytest.skip("needs platform shared memory")
    pinned = json.loads(PINNED.read_text())
    assert observe(name, *config) == pinned[key(name, *config)]


def record(*fragments):
    """Replace the entries whose key has every fragment with fresh runs."""
    entries = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    for name in WORKLOADS:
        for config in CONFIGS:
            entry = key(name, *config)
            if all(fragment in entry for fragment in fragments):
                entries[entry] = observe(name, *config)
    PINNED.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(*sys.argv[1:])
