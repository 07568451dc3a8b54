"""The columnar sequential PBSM path against the tuple engine it shadows.

``PBSM(internal="sweep_numpy")`` runs on columns from input to output: id-emitting partitioner (also when repartitioning),
a row gather per partition pair into the id-pair kernels, a composed
repartition region evaluated array-wise as a chain of ``(grid, pid)``
ownership tests, oid tuples only at the generator boundary.  It is what
``spatial_join`` runs by default.  Everything observable must equal the
tuple engine's answer (``internal="sweep_list"``) and brute force; the
simulated accounting and the pair *order* must equal what the previous
hybrid ``sweep_numpy`` path produced (``pbsm_columnar_pinned.json``,
recorded by running :func:`observe` at the commit before each change it
guards; the ``zipf3k`` entries at the one before the round-robin tile
mapping was deleted, under the hash mapping).  The
driver hands out whole leaves, not pairs (``TestLeafBatching``): the pair
order of both engines is pinned to the per-pair generator's
(``pbsm_leaf_order_pinned.json``, :func:`ordered_hash` of ``run`` at the
commit before leaf batching).
"""

import functools
import hashlib
import json
import random
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

import repro.pbsm.join as pbsm_join_module
import repro.pbsm.leaf as pbsm_leaf_module
from repro import PBSM, spatial_join
from repro.core.phases import PHASE_DEDUP, PHASE_JOIN, PHASE_PARTITION
from repro.datasets.fileio import load_relation, save_relation
from repro.datasets.synthetic import zipf_rects
from repro.internal.brute import brute_force_pairs
from repro.io.costmodel import mb
from repro.kernels.columnar import ColumnarRelation
from repro.kernels.shm import shm_enabled
from repro.obs import KIND_PHASE, KIND_RUN, Tracer, phase_totals

from tests.conftest import HASH_ID, random_kpes, spans_of_kind
from tests.test_boundary_ownership import (
    SENTINELS_LEFT,
    SENTINELS_RIGHT,
    lattice_rects,
)

DEDUPS = ("rpm", "sort")

#: Budgets (bytes) for the 400-record workloads: no repartitioning, one
#: level, several levels (``test_budgets_reach_their_depths`` checks).
BUDGETS = {"depth0": 16_000, "depth1": 5_000, "deep": 1_500}

PINNED = Path(__file__).with_name("pbsm_columnar_pinned.json")
ORDER_PINNED = Path(__file__).with_name("pbsm_leaf_order_pinned.json")


def points_and_slivers(n, seed, start_oid=0):
    """Degenerate points plus full-width/full-height slivers.

    Points sit on exactly one tile; a sliver overlaps a whole row or
    column of tiles and is replicated into (nearly) every partition at
    every repartitioning level.
    """
    out = []
    for i, kpe in enumerate(random_kpes(n, seed, start_oid, max_edge=0.0)):
        if i % 5 == 0:
            out.append((kpe[0], 0.0, kpe[2], 1.0, kpe[2] + 1e-6))
        elif i % 5 == 1:
            out.append((kpe[0], kpe[1], 0.0, kpe[1] + 1e-6, 1.0))
        else:
            out.append(tuple(kpe))
    return out


def workload(name):
    if name == "uniform":
        return (
            random_kpes(400, 11, 1_000, max_edge=0.06),
            random_kpes(400, 22, 10_000, max_edge=0.06),
        )
    if name == "zipf":
        return (
            zipf_rects(400, 3, start_oid=1_000, tile_seed=7),
            zipf_rects(400, 4, start_oid=10_000, tile_seed=7),
        )
    if name == "point+sliver":
        return points_and_slivers(120, 5, 1_000), points_and_slivers(120, 6, 10_000)
    if name == "identical":
        # Unsplittable: every record overlaps every tile of every grid,
        # so only the no-progress guard ends the recursion.
        return (
            [(1_000 + i, 0.2, 0.2, 0.6, 0.6) for i in range(60)],
            [(10_000 + i, 0.2, 0.2, 0.6, 0.6) for i in range(60)],
        )
    raise ValueError(name)


WORKLOADS = ("uniform", "zipf", "point+sliver", "identical")


def run(left, right, memory, internal, dedup):
    return PBSM(memory, internal=internal, dedup=dedup).run(left, right)


def assert_matches_tuple_engine(left, right, memory, dedup):
    columnar = run(left, right, memory, "sweep_numpy", dedup)
    tuples = run(left, right, memory, "sweep_list", dedup)
    # Same multiset as the tuple engine: brute force's pairs, each once.
    assert Counter(columnar.pairs) == Counter(tuples.pairs)
    assert set(columnar.pairs) == set(brute_force_pairs(left, right))
    assert len(columnar.pairs) == len(set(columnar.pairs))
    for field in (
        "repartition_events",
        "replicas_created",
        "records_partitioned",
        "memory_overruns",
        "peak_memory_bytes",
        "duplicates_suppressed",
        "duplicates_sorted_out",
    ):
        assert getattr(columnar.stats, field) == getattr(tuples.stats, field), field
    # The simulated disk sees the same files either way.
    assert columnar.stats.io_units_by_phase == tuples.stats.io_units_by_phase
    return columnar


# ----------------------------------------------------------------------
# pair set, multiplicity and replication stats vs the tuple engine
# ----------------------------------------------------------------------
class TestAgainstTupleEngine:
    @HASH_ID
    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("dedup", DEDUPS)
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_list_inputs(self, name, dedup, budget):
        left, right = workload(name)
        assert_matches_tuple_engine(left, right, BUDGETS[budget], dedup)

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("dedup", DEDUPS)
    def test_mapped_inputs(self, dedup, budget, tmp_path):
        left, right = workload("uniform")
        save_relation(left, tmp_path / "l.rcd")
        save_relation(right, tmp_path / "r.rcd")
        mapped_left = load_relation(tmp_path / "l.rcd")
        mapped_right = load_relation(tmp_path / "r.rcd")
        try:
            assert mapped_left.mapped and mapped_right.mapped
            from_mapped = assert_matches_tuple_engine(
                mapped_left, mapped_right, BUDGETS[budget], dedup
            )
            from_lists = run(left, right, BUDGETS[budget], "sweep_numpy", dedup)
            # Same engine, same bytes: the representation is invisible.
            assert from_mapped.pairs == from_lists.pairs
            assert from_mapped.stats.cpu_by_phase == from_lists.stats.cpu_by_phase
        finally:
            mapped_left.store.close()
            mapped_right.store.close()

    @pytest.mark.parametrize("dedup", DEDUPS)
    def test_one_empty_side(self, dedup):
        left, _ = workload("uniform")
        for a, b in ((left, []), ([], left)):
            result = run(a, b, BUDGETS["deep"], "sweep_numpy", dedup)
            assert result.pairs == []
            assert result.stats.n_partitions == 0
            assert result.stats.io_units_by_phase == {}

    def test_budgets_reach_their_depths(self, monkeypatch):
        depths = []
        #: ``id(run) -> depth`` of every sub-partition run a split made;
        #: *kept* holds the runs, so no id is reused during a run.
        depth_of = {}
        kept = []
        split = pbsm_join_module.split_partition_ids

        def spy(source, *args):
            # A top-level partition is split at depth 0, a run made by
            # the split at depth k at depth k + 1.
            depth = depth_of.get(id(source), 0)
            depths.append(depth)
            runs, subgrid = split(source, *args)
            kept.extend(runs)
            depth_of.update((id(sub), depth + 1) for sub in runs)
            return runs, subgrid

        monkeypatch.setattr(pbsm_join_module, "split_partition_ids", spy)
        left, right = workload("uniform")
        depth = {}
        for label, memory in BUDGETS.items():
            depths.clear()
            run(left, right, memory, "sweep_numpy", "rpm")
            depth[label] = max((d + 1 for d in depths), default=0)
        assert depth["depth0"] == 0
        assert depth["depth1"] == 1
        assert depth["deep"] >= 2

    def test_no_progress_guard_joins_the_pair_once(self):
        left, right = workload("identical")
        result = run(left, right, BUDGETS["deep"], "sweep_numpy", "rpm")
        assert len(result.pairs) == 60 * 60
        # One split attempt per top-level partition, then the guard.
        assert result.stats.repartition_events == result.stats.n_partitions
        assert result.stats.memory_overruns == result.stats.n_partitions

    @settings(max_examples=25, deadline=None)
    @given(left=lattice_rects(), right=lattice_rects(start_oid=1000))
    def test_composed_regions_on_tile_edges(self, left, right):
        # Corners on the 1/12 lattice coincide with tile edges of the
        # grids the recursion builds; 300 bytes hold fifteen records, so
        # ownership is decided by chains of sub-regions (the fixed-input
        # test below shows such a budget does repartition, repeatedly).
        left = left + SENTINELS_LEFT
        right = right + SENTINELS_RIGHT
        truth = sorted(brute_force_pairs(left, right))
        for dedup in DEDUPS:
            result = run(left, right, 300, "sweep_numpy", dedup)
            assert sorted(result.pairs) == truth, dedup

    def test_lattice_budget_composes_regions(self):
        lattice = [i / 12 for i in range(13)]
        rng = random.Random(12)

        def rects(start_oid):
            out = []
            for i in range(40):
                xl, xh = sorted(rng.choices(lattice, k=2))
                yl, yh = sorted(rng.choices(lattice, k=2))
                out.append((start_oid + i, xl, yl, xh, yh))
            return out

        left, right = rects(0), rects(1000)
        result = assert_matches_tuple_engine(left, right, 800, "rpm")
        assert result.stats.repartition_events > result.stats.n_partitions
        assert result.stats.duplicates_suppressed > 0


# ----------------------------------------------------------------------
# byte-identity with the hybrid path this engine replaced
# ----------------------------------------------------------------------
def pinned_workload(name):
    if name == "zipf3k":
        return (
            zipf_rects(3000, 3, tile_seed=7),
            zipf_rects(3000, 4, start_oid=10**6, tile_seed=7),
            mb(0.01),
        )
    raise ValueError(name)


PINNED_RUNS = (
    ("zipf3k", "rpm"),
    ("zipf3k", "sort"),
)


def ordered_hash(pairs):
    return hashlib.sha256(repr([(int(a), int(b)) for a, b in pairs]).encode()).hexdigest()


def observe(name, dedup):
    """What one pinned ``PBSM(internal="sweep_numpy")`` run lets out."""
    left, right, memory = pinned_workload(name)
    result = run(left, right, memory, "sweep_numpy", dedup)
    stats = result.stats
    return {
        "n_pairs": len(result.pairs),
        "pair_order_sha256": ordered_hash(result.pairs),
        "cpu_by_phase": stats.cpu_by_phase,
        "io_units_by_phase": stats.io_units_by_phase,
        "sim_seconds_by_phase": stats.sim_seconds_by_phase,
        "repartition_events": stats.repartition_events,
        "duplicates_suppressed": stats.duplicates_suppressed,
        "duplicates_sorted_out": stats.duplicates_sorted_out,
        "replicas_created": stats.replicas_created,
        "memory_overruns": stats.memory_overruns,
        "peak_memory_bytes": stats.peak_memory_bytes,
    }


@pytest.mark.parametrize("name,dedup", PINNED_RUNS)
def test_accounting_and_order_equal_the_parent_commit(name, dedup):
    pinned = json.loads(PINNED.read_text())[f"{name}/{dedup}"]
    assert pinned["repartition_events"] > 0  # the workloads do repartition
    # Through JSON so both sides are plain dicts of the same float reprs.
    assert json.loads(json.dumps(observe(name, dedup))) == pinned


# ----------------------------------------------------------------------
# the recursion hands out leaves; pairs move a leaf at a time
# ----------------------------------------------------------------------
ENGINES = ["sweep_list", "sweep_numpy"]

#: No repartitioning, one level, several levels, the no-progress fallback.
ORDER_RUNS = (
    ("uniform", "depth0"),
    ("uniform", "depth1"),
    ("uniform", "deep"),
    ("identical", "deep"),
)


def count_leaves(monkeypatch, internal):
    """Count the engine's leaf calls; ``sizes[i]`` is how many pairs leaf
    *i* returned (both leaves return ``((rid, sid), suppressed)``)."""
    name = "columnar_leaf" if internal == "sweep_numpy" else "tuple_leaf"
    leaf = getattr(pbsm_leaf_module, name)
    sizes = []

    def counting(*args):
        out = leaf(*args)
        sizes.append(len(out[0][0]))
        return out

    monkeypatch.setattr(pbsm_leaf_module, name, counting)
    return sizes


class TestLeafBatching:
    @pytest.mark.parametrize("internal", ENGINES)
    @pytest.mark.parametrize("dedup", DEDUPS)
    @pytest.mark.parametrize("name,budget", ORDER_RUNS)
    def test_iter_pairs_is_run_in_the_per_pair_generators_order(
        self, name, budget, dedup, internal
    ):
        left, right = workload(name)
        driver = PBSM(BUDGETS[budget], internal=internal, dedup=dedup)
        ran = driver.run(left, right).pairs
        assert list(driver.iter_pairs(left, right)) == ran
        pinned = json.loads(ORDER_PINNED.read_text())
        assert ordered_hash(ran) == pinned[f"{name}/{budget}/{dedup}/{internal}"]

    @pytest.mark.parametrize("internal", ENGINES)
    def test_first_rpm_pair_leaves_after_one_leaf_first_sort_pair_after_all(
        self, internal, monkeypatch
    ):
        sizes = count_leaves(monkeypatch, internal)
        left, right = workload("uniform")
        for dedup in ("rpm", "sort"):
            driver = PBSM(BUDGETS["depth1"], internal=internal, dedup=dedup)
            driver.run(left, right)
            per_leaf = list(sizes)
            first_with_pairs = next(i for i, n in enumerate(per_leaf) if n)
            assert first_with_pairs + 1 < len(per_leaf)
            sizes.clear()
            pairs = driver.iter_pairs(left, right)
            next(pairs)
            leaves_run = first_with_pairs + 1 if dedup == "rpm" else len(per_leaf)
            assert len(sizes) == leaves_run, dedup
            pairs.close()
            sizes.clear()

    @pytest.mark.parametrize("internal", ENGINES)
    def test_run_resumes_the_driver_per_leaf_not_per_pair(self, internal, monkeypatch):
        sizes = count_leaves(monkeypatch, internal)
        left = random_kpes(2500, 31, max_edge=0.05)
        right = random_kpes(2500, 32, 10**6, max_edge=0.05)
        driver = PBSM(mb(0.008), internal=internal)
        driver_code = {
            f.__code__ for f in vars(PBSM).values() if hasattr(f, "__code__")
        }
        calls = [0]

        def profile(frame, event, arg):
            # A generator resume is a "call" of its code object.
            if event == "call" and frame.f_code in driver_code:
                calls[0] += 1

        sys.setprofile(profile)
        try:
            result = driver.run(left, right)
        finally:
            sys.setprofile(None)
        assert len(result.pairs) > 10_000
        assert len(sizes) > 20
        # run + stats + the two generators' resumes: a handful per leaf.
        assert calls[0] <= 3 * len(sizes) + 10

    @pytest.mark.parametrize("form", ("mapped", "columnar"))
    def test_columnar_inputs_box_each_oid_once(self, form, tmp_path):
        # No KPE tuples to share oids with: one int per row, reused by
        # every pair the row is in, never one per pair.
        left, right = workload("uniform")
        if form == "mapped":
            save_relation(left, tmp_path / "l.rcd")
            save_relation(right, tmp_path / "r.rcd")
            col_left = load_relation(tmp_path / "l.rcd")
            col_right = load_relation(tmp_path / "r.rcd")
        else:
            col_left = ColumnarRelation.from_kpes(left)
            col_right = ColumnarRelation.from_kpes(right)
        try:
            for dedup in DEDUPS:
                pairs = run(col_left, col_right, BUDGETS["deep"], "sweep_numpy", dedup).pairs
                assert len(pairs) > max(len(left), len(right))
                assert len({id(a) for a, _ in pairs}) <= len(left)
                assert len({id(b) for _, b in pairs}) <= len(right)
        finally:
            if form == "mapped":
                col_left.store.close()
                col_right.store.close()


# ----------------------------------------------------------------------
# streaming, object identity, spans, defaults
# ----------------------------------------------------------------------
class TestGeneratorBoundary:
    def test_first_rpm_pair_streams_before_the_last_read(self, monkeypatch):
        reads = [0]
        charge_leaf = pbsm_join_module.charge_leaf

        def counting(*args):
            reads[0] += 1
            return charge_leaf(*args)

        monkeypatch.setattr(pbsm_join_module, "charge_leaf", counting)
        left, right = workload("uniform")
        pairs = PBSM(BUDGETS["depth1"], internal="sweep_numpy").iter_pairs(
            left, right
        )
        first = next(pairs)
        reads_at_first_pair = reads[0]
        rest = list(pairs)
        assert reads_at_first_pair < reads[0]
        assert len(rest) + 1 == len(brute_force_pairs(left, right))
        assert first in set(brute_force_pairs(left, right))

    def test_sort_dedup_yields_nothing_until_the_final_phase(self):
        left, right = workload("uniform")
        tracer = Tracer()
        pairs = PBSM(
            BUDGETS["depth1"], internal="sweep_numpy", dedup="sort", tracer=tracer
        ).iter_pairs(left, right)
        next(pairs)
        phases = [s.name for s in spans_of_kind(tracer, KIND_PHASE)]
        # Both earlier phases are closed by the time a pair comes out.
        assert phases[:2] == [PHASE_PARTITION, PHASE_JOIN]
        pairs.close()

    def test_result_tuples_share_the_inputs_oid_objects(self):
        # The memory bound rests on this: no fresh int per result pair.
        left, right = workload("uniform")
        left_oid = {k[0]: k[0] for k in left}
        right_oid = {k[0]: k[0] for k in right}
        for dedup in DEDUPS:
            pairs = run(left, right, BUDGETS["deep"], "sweep_numpy", dedup).pairs
            assert pairs
            assert all(a is left_oid[a] and b is right_oid[b] for a, b in pairs)

    @pytest.mark.parametrize("dedup", ("rpm", "sort"))
    def test_same_spans_as_the_tuple_engine(self, dedup):
        left, right = workload("uniform")
        seen = {}
        for internal in ("sweep_numpy", "sweep_list"):
            tracer = Tracer()
            result = PBSM(
                BUDGETS["depth1"], internal=internal, dedup=dedup, tracer=tracer
            ).run(left, right)
            runs = spans_of_kind(tracer, KIND_RUN)
            assert [s.name for s in runs] == ["pbsm"]
            phases = spans_of_kind(tracer, KIND_PHASE)
            seen[internal] = [s.name for s in phases]
            # Trace <-> stats reconciliation: the same measurements.
            assert result.stats.wall_seconds_by_phase == phase_totals([span.to_dict() for span in tracer.spans])
            for span in phases:
                assert span.counters.get("io_units", 0) > 0, span.name
        expected = [PHASE_PARTITION, PHASE_JOIN] + (
            [PHASE_DEDUP] if dedup == "sort" else []
        )
        assert seen["sweep_numpy"] == seen["sweep_list"] == expected


# ----------------------------------------------------------------------
# the library default
# ----------------------------------------------------------------------
class TestSpatialJoinDefault:
    def test_explicit_internal_still_wins(self, small_pair):
        left, right = small_pair
        paper = spatial_join(left, right, mb(0.5), internal="sweep_list")
        assert paper.stats.algorithm == "PBSM(sweep_list,RPM)"
        assert sorted(paper.pairs) == sorted(spatial_join(left, right, mb(0.5)).pairs)

    def test_driver_default_is_still_the_papers_engine(self, small_pair):
        left, right = small_pair
        assert PBSM(mb(0.5)).run(left, right).stats.algorithm == "PBSM(sweep_list,RPM)"


# ----------------------------------------------------------------------
# rows no tile range exists for are rejected where the columns are read
# ----------------------------------------------------------------------
def _parallel(executor, internal="sweep_numpy"):
    def join(left, right):
        return PBSM(
            BUDGETS["depth0"], workers=2, internal=internal, executor=executor
        ).run(left, right)

    return join


def _sequential(internal):
    def join(left, right):
        return run(left, right, BUDGETS["depth0"], internal, "rpm")

    return join


#: Both classes build and check the columns for every internal.
TUPLE_INTERNALS = ("sweep_list", "sweep_trie", "sweep_tree", "nested_loops")

COLUMN_READERS = [
    pytest.param(_sequential("sweep_numpy"), id="PBSM"),
    pytest.param(
        lambda a, b: spatial_join(a, b, BUDGETS["depth0"]), id="spatial_join"
    ),
    pytest.param(_parallel("simulated"), id="parallel-simulated"),
    pytest.param(
        _parallel("process"),
        id="parallel-process",
        marks=pytest.mark.skipif(not shm_enabled(), reason="needs shared memory"),
    ),
]

#: The tuple engine reads the same checked columns, and runs the same
#: batched ownership test.
TUPLE_READERS = [
    *(pytest.param(_sequential(name), id=f"PBSM-{name}") for name in TUPLE_INTERNALS),
    *(
        pytest.param(_parallel("simulated", name), id=f"parallel-simulated-{name}")
        for name in TUPLE_INTERNALS
    ),
]


NAN = float("nan")
INF = float("inf")


class TestBadRowsRejected:
    @pytest.mark.parametrize("join", COLUMN_READERS + TUPLE_READERS)
    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param((NAN, 0.4, 0.5, 0.5), id="nan-xl"),
            pytest.param((0.4, 0.4, 0.5, NAN), id="nan-yh"),
            pytest.param((0.45, 0.4, 0.44, 0.5), id="inverted-x-inside-one-tile"),
            pytest.param((0.1, 0.9, 0.2, 0.1), id="inverted-y-across-tiles"),
        ],
    )
    def test_nan_or_inverted_mbr_names_the_row(self, join, bad):
        left, right = workload("uniform")
        left = list(left)
        left[7] = (left[7][0],) + bad
        message = (
            r"left relation has a NaN coordinate or an inverted MBR at row 7 "
            rf"\(oid={left[7][0]}\)"
        )
        with pytest.raises(ValueError, match=message):
            join(left, right)
        with pytest.raises(ValueError, match=message.replace("left", "right")):
            join(right, left)

    @pytest.mark.parametrize("join", COLUMN_READERS + TUPLE_READERS)
    def test_infinite_extents_still_join(self, join):
        left, right = workload("uniform")
        left = list(left)
        left[7] = (left[7][0], -INF, 0.4, INF, 0.5)
        left[9] = left[9][:4] + (INF,)
        result = join(left, right)
        assert sorted(result.pairs) == sorted(brute_force_pairs(left, right))


#: One leaf of this many records stripes its y axis (``STRIPE_MIN_RECORDS``),
#: which an infinite y extent used to kill (``int(nan)`` stripes).
N_STRIPED = 2100


@functools.lru_cache(maxsize=None)
def striped_workload():
    left = random_kpes(N_STRIPED, 51, max_edge=0.02)
    right = random_kpes(N_STRIPED, 52, 10**6, max_edge=0.02)
    return left, right, brute_force_pairs(left, right)


INFINITE_ROWS = [
    pytest.param(lambda k: (k[0], 0.4, -INF, 0.5, INF), id="y-infinite"),
    pytest.param(lambda k: tuple(k[:4]) + (INF,), id="yh-infinite"),
    pytest.param(lambda k: (k[0], -INF, 0.4, INF, 0.5), id="x-infinite"),
    pytest.param(lambda k: (k[0], -INF, -INF, INF, INF), id="all-infinite"),
]

INFINITE_JOINS = [
    pytest.param(
        lambda a, b, m: PBSM(m, internal="sweep_numpy").run(a, b), id="PBSM"
    ),
    pytest.param(lambda a, b, m: spatial_join(a, b, m), id="spatial_join"),
    # The tuple engine's leaf under the same budgets and composed regions.
    pytest.param(
        lambda a, b, m: PBSM(m, internal="sweep_list").run(a, b), id="PBSM-sweep_list"
    ),
    pytest.param(
        lambda a, b, m: PBSM(
            m, workers=2, internal="sweep_numpy", executor="simulated"
        ).run(a, b),
        id="parallel-simulated",
    ),
    # The other engines, through the library entry point.
    *(
        pytest.param(
            lambda a, b, m, method=method: spatial_join(a, b, m, method=method),
            id=f"spatial_join-{method}",
        )
        for method in ("s3j", "sssj", "shj", "rtree")
    ),
]


@pytest.mark.parametrize("join", INFINITE_JOINS)
@pytest.mark.parametrize("memory_mb", (2.5, 0.05, 0.01))
@pytest.mark.parametrize("infinite", INFINITE_ROWS)
def test_infinite_extents_join_exactly_at_every_budget(infinite, memory_mb, join):
    # One striped leaf, a few partitions, repartitioning.
    left, right, finite_truth = striped_workload()
    left = list(left)
    left[7] = infinite(left[7])
    truth = [p for p in finite_truth if p[0] != left[7][0]]
    truth += brute_force_pairs([left[7]], right)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = join(left, right, mb(memory_mb))
    assert sorted(result.pairs) == sorted(truth)
