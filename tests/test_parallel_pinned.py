"""Every ``PBSM(workers=)`` executor against the reference it used to be measured by.

The simulated executor's record-task loop was the reference of every
parallel parity test until all executors moved onto CSR id tasks; since
then those tests compare one task runner with itself.  What keeps the
move honest is ``parallel_pinned.json``: :func:`observe` recorded from
``executor="simulated"`` on the last commit that still had record tasks
(51ad48e), over workloads x dedup x internal x workers.  Every executor
that can run must reproduce its entry — ordered pairs, suppression,
replication and memory stats, simulated accounting — and every entry's
pair multiset must equal brute force and the sequential tuple engine,
the two references the task runner cannot reach.

The recording also had a ``scheduler`` dimension and a ``python``
section (the run with numpy gated off).  The ``stealing`` half and the
``python`` section went with their options; what remains is the
``static`` half of the ``numpy`` section, values untouched — only
``/static`` was dropped from the keys, and the ``numpy/`` prefix stays.
The ``twolayer`` half went with ``dedup="twolayer"``; the ``/rpm/`` part
of the keys stays.

Every non-empty entry was re-recorded once, on purpose, when the
parallel driver became ``PBSM`` plus where its leaves run: it
repartitions pairs over the budget and reports PBSM's four-phase
accounting (the join phase as the leaves' LPT makespan).  The ``empty``
entries did not change then.

Two groups were re-recorded, on purpose, when that driver folded into
``PBSM(workers=)``: every ``W1`` entry is now the sequential ``PBSM``
run (one worker never fans out; seven of the twelve non-empty ones
moved in the last bits of the join phase's simulated seconds, pairs and
counters unchanged), and every ``empty`` entry holds PBSM's zero-filled
phases.  The ``W2``/``W3`` entries did not change.

Re-record (only the keys containing every given fragment)::

    PYTHONPATH=src python -m tests.test_parallel_pinned /zipf/ /sweep_numpy/
"""

import hashlib
import itertools
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro import PBSM
from repro.datasets.synthetic import zipf_rects
from repro.internal.brute import brute_force_pairs
from repro.io.costmodel import mb
from repro.kernels.shm import shm_enabled

from tests.conftest import random_kpes
from tests.test_pbsm_columnar import points_and_slivers

PINNED = Path(__file__).with_name("parallel_pinned.json")

WORKLOADS = ("uniform", "zipf", "point+sliver", "self", "empty")
#: Key part (and test id) of every entry: the one dedup mode left, the
#: only one ``PBSM`` runs with ``workers > 1``.
DEDUP = "rpm"
INTERNALS = ("sweep_numpy", "sweep_trie", "sweep_list")
WORKERS = (1, 2, 3)
#: Key prefix (and test id) of every entry: the one section left.
SECTION = "numpy"


@lru_cache(maxsize=None)
def workload(name):
    """``(left, right, memory_bytes)`` of one pinned workload."""
    if name == "uniform":
        return (
            random_kpes(1200, 11, 1_000, max_edge=0.04),
            random_kpes(1200, 22, 100_000, max_edge=0.04),
            12_000,
        )
    if name == "zipf":
        # test_parallel_skew's generator and seeds, at a size brute
        # force can still check.
        return (
            zipf_rects(6000, seed=101, alpha=1.6),
            zipf_rects(6000, seed=202, alpha=1.6, start_oid=10**6),
            mb(0.08),
        )
    if name == "point+sliver":
        return (
            points_and_slivers(200, 5, 1_000),
            points_and_slivers(200, 6, 100_000),
            4_000,
        )
    if name == "self":
        relation = random_kpes(700, 33, 1_000, max_edge=0.05)
        return relation, relation, 8_000
    if name == "empty":
        return random_kpes(300, 44, 1_000), [], 4_000
    raise ValueError(name)


@lru_cache(maxsize=None)
def reference_pairs(name):
    """The workload's sorted result, agreed by both independent references."""
    left, right, memory = workload(name)
    brute = sorted(brute_force_pairs(left, right))
    sequential = PBSM(memory, internal="sweep_list").run(left, right)
    assert sorted(sequential.pairs) == brute
    return brute


def run(name, internal, workers, executor="simulated"):
    left, right, memory = workload(name)
    return PBSM(
        memory, internal=internal, workers=workers, executor=executor
    ).run(left, right)


def observe(result):
    """What one pinned run lets out, executor-independent by contract."""
    stats = result.stats
    return {
        "pair_order_sha256": hashlib.sha256(
            repr([(int(a), int(b)) for a, b in result.pairs]).encode()
        ).hexdigest(),
        "n_results": stats.n_results,
        "duplicates_suppressed": stats.duplicates_suppressed,
        "records_partitioned": stats.records_partitioned,
        "replicas_created": stats.replicas_created,
        "n_partitions": stats.n_partitions,
        "memory_overruns": stats.memory_overruns,
        "peak_memory_bytes": stats.peak_memory_bytes,
        "cpu_by_phase": stats.cpu_by_phase,
        "io_units_by_phase": stats.io_units_by_phase,
        "sim_seconds_by_phase": stats.sim_seconds_by_phase,
    }


def load_pinned():
    """``key -> observation``; a string value points at an equal entry."""
    entries = json.loads(PINNED.read_text())
    for key, value in entries.items():
        if isinstance(value, str):
            entries[key] = entries[value]
    return entries


def executors():
    """``(executor, disable_shm)`` for every executor that can run here."""
    # Without a segment the process executor runs the in-process loop.
    runnable = [("simulated", False), ("process", True)]
    if shm_enabled():
        runnable.append(("process", False))
    return runnable


@pytest.fixture(scope="module")
def pinned():
    return load_pinned()


@pytest.mark.parametrize("internal", INTERNALS)
@pytest.mark.parametrize("dedup", [DEDUP])
@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("section", [SECTION])
def test_every_executor_reproduces_the_pinned_run(
    section, name, dedup, internal, pinned, monkeypatch
):
    reference = reference_pairs(name)
    for workers in WORKERS:
        key = f"{section}/{name}/{dedup}/{internal}/W{workers}"
        for executor, disable_shm in executors():
            if workers == 1 and executor != "simulated":
                continue  # one worker never fans out: the same loop
            with monkeypatch.context() as env:
                if disable_shm:
                    env.setenv("REPRO_DISABLE_SHM", "1")
                result = run(name, internal, workers, executor)
            if workers == 1:
                assert result.stats.executor == ""  # the sequential run
            else:
                assert result.stats.executor == (
                    "simulated" if disable_shm else executor
                )
            # Through JSON so both sides are plain dicts of the same
            # float reprs.
            observed = json.loads(json.dumps(observe(result)))
            assert observed == pinned[key], (key, executor, disable_shm)
            if executor == "simulated":
                assert sorted(result.pairs) == reference, key
        if workers == 1:
            left, right, memory = workload(name)
            sequential = PBSM(memory, internal=internal).run(left, right)
            assert json.loads(json.dumps(observe(sequential))) == pinned[key], key


def record(*fragments):
    """Replace the entries whose key has every fragment with fresh runs."""
    entries = load_pinned() if PINNED.exists() else {}
    for name, internal, workers in itertools.product(WORKLOADS, INTERNALS, WORKERS):
        key = f"{SECTION}/{name}/{DEDUP}/{internal}/W{workers}"
        if all(fragment in key for fragment in fragments):
            entries[key] = json.loads(json.dumps(observe(run(name, internal, workers))))
    first_key = {}
    lines = []
    for key in sorted(entries):
        text = json.dumps(entries[key], sort_keys=True)
        owner = first_key.setdefault(text, key)
        value = text if owner == key else json.dumps(owner)
        lines.append(f"{json.dumps(key)}: {value}")
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    record(*sys.argv[1:])
