"""Columnar planner statistics against their per-record definitions.

``profile_join`` computes every statistic from the relation's columns
(``planner/stats.py``, ``GridHistogram.build``).  The reference here is
:func:`scalar_profile`: the same statistics from the per-record loops
that define them (``repro.datasets.stats``, ``GridHistogram.build`` and
``Space.of`` on a plain list, a double loop over the strided samples).
Each input kind is profiled and planned as a list, as a
``ColumnarRelation`` and as a mapped ``.rcd`` file.

``planner_columnar_pinned.json`` holds the chosen plan and the candidate
order of the ``bench_planner`` sweep and both benchmark datasets, recorded
at the parent commit with :func:`observe` (under the one key ``numpy``).
"""

import json
import math
from pathlib import Path

import pytest

import repro.planner.cost as cost_module
from repro import PlannerCache, mb, spatial_join
from repro.bench.workloads import (
    PLANNER_MEMORY_FRACTIONS,
    PLANNER_PATTERNS,
    memory_for_fraction,
    planner_pair,
)
from repro.core.space import Space
from repro.datasets import clustered_rects, polyline_mbrs, uniform_rects
from repro.datasets.patterns import mixed_scale
from repro.datasets.stats import average_edges, coverage, density_skew
from repro.estimate import GridHistogram
from repro.internal.brute import brute_force_pairs
from repro.io.costmodel import CostModel
from repro.kernels.columnar import ColumnarRelation
from repro.kernels.mmapstore import open_relation, write_rcd
from repro.kernels.shm import shm_enabled
from repro.planner import (
    enumerate_candidates,
    estimate_pbsm,
    plan_join,
    profile_join,
    relation_fingerprint,
)
from repro.planner.stats import (
    _MIN_SAMPLED_PAIRS,
    _SELECTIVITY_SAMPLE,
    PROFILE_RESOLUTION,
    JoinProfile,
    RelationProfile,
)

PINNED = Path(__file__).with_name("planner_columnar_pinned.json")
MEMORY = mb(0.01)
#: A budget at which PBSM is the cheapest join of the uniform pair when
#: executed (0.53 simulated seconds against SHJ's 0.79 and SSSJ's 1.01);
#: at ``MEMORY`` SHJ and SSSJ are (1.11 and 1.16 against PBSM's 1.31).
PBSM_MEMORY = mb(0.03)
FORMS = ("list", "columnar", "mapped")


def pair(generator, n, **kwargs):
    return (
        generator(n, seed=1, **kwargs),
        generator(n, seed=2, start_oid=10**6, **kwargs),
    )


#: n = 3000 is past the 512-record sample and no multiple of it, so the
#: stride-then-truncate of the sample is exercised.
INPUTS = {
    "uniform": lambda: pair(uniform_rects, 3000),
    "clustered": lambda: pair(clustered_rects, 3000),
    "mixed_scale": lambda: pair(mixed_scale, 2000),
    "polyline_mbrs": lambda: pair(polyline_mbrs, 3000),
    "empty": lambda: ([], uniform_rects(700, seed=2, start_oid=10**6)),
    "single_record": lambda: (
        [(7, 0.2, 0.2, 0.6, 0.6)],
        uniform_rects(700, seed=2, start_oid=10**6),
    ),
    # every record the same point: the joint space has no extent at all
    "zero_extent": lambda: (
        [(i, 0.5, 0.5, 0.5, 0.5) for i in range(300)],
        [(10**6 + i, 0.5, 0.5, 0.5, 0.5) for i in range(200)],
    ),
    "below_sample_size": lambda: pair(uniform_rects, 300, mean_edge=0.05),
}


def as_form(form, kpes, path):
    """*kpes* as the planner may be handed it."""
    if form == "list":
        return kpes
    if form == "columnar":
        return ColumnarRelation.from_kpes(kpes)
    write_rcd(kpes, path)
    return open_relation(path)


def scalar_relation_profile(kpes):
    """``RelationProfile.build`` from the per-record definitions."""
    fingerprint = relation_fingerprint(kpes)
    if not kpes:
        return RelationProfile(fingerprint, 0, 0.0, 0.0, 0.0, 0.0, 1.0, (0.0, 0.0, 1.0, 1.0))
    space = Space.of(kpes)
    avg_w, avg_h = average_edges(kpes)
    avg_area = sum((k[3] - k[1]) * (k[4] - k[2]) for k in kpes) / len(kpes)
    hist = GridHistogram.build(kpes, space, PROFILE_RESOLUTION)  # a list: the loop
    return RelationProfile(
        fingerprint, len(kpes), coverage(kpes), avg_w, avg_h, avg_area,
        density_skew(hist.counts), (space.xl, space.yl, space.xh, space.yh),
    )  # fmt: skip


def strided_sample(kpes, size=_SELECTIVITY_SAMPLE):
    return kpes if len(kpes) <= size else kpes[:: len(kpes) // size][:size]


def scalar_profile(left, right):
    """``profile_join`` of two lists, every statistic a per-record loop."""
    space = Space.of(left, right)
    hist_l = GridHistogram.build(left, space, PROFILE_RESOLUTION)
    hist_r = GridHistogram.build(right, space, PROFILE_RESOLUTION)
    sample_l, sample_r = strided_sample(left), strided_sample(right)
    pairs = tuple(
        (r, s)
        for r in sample_l
        for s in sample_r
        if r[1] <= s[3] and s[1] <= r[3] and r[2] <= s[4] and s[2] <= r[4]
    )
    if len(pairs) >= _MIN_SAMPLED_PAIRS:
        est = len(pairs) * ((len(left) * len(right)) / (len(sample_l) * len(sample_r)))
    else:
        est = hist_l.estimate_join_results(hist_r)
    return JoinProfile(
        left=scalar_relation_profile(left),
        right=scalar_relation_profile(right),
        space=(space.xl, space.yl, space.xh, space.yh),
        est_results=est,
        hist_left=hist_l,
        hist_right=hist_r,
        sample_pairs=pairs,
    )


def histogram_state(hist):
    return (hist.space, hist.resolution, hist.n, hist.counts, hist.sum_w, hist.sum_h)


def assert_same_statistics(got, ref):
    for side in ("left", "right"):
        g, r = getattr(got, side), getattr(ref, side)
        assert (g.fingerprint, g.n, g.skew, g.space) == (r.fingerprint, r.n, r.skew, r.space)
        for name in ("coverage", "avg_width", "avg_height", "avg_area"):
            assert math.isclose(
                getattr(g, name), getattr(r, name), rel_tol=1e-12, abs_tol=0.0
            ), (side, name)
    assert got.space == ref.space
    assert histogram_state(got.hist_left) == histogram_state(ref.hist_left)
    assert histogram_state(got.hist_right) == histogram_state(ref.hist_right)
    assert got.sample_pairs == ref.sample_pairs
    assert got.est_results == ref.est_results


# ----------------------------------------------------------------------
# parity with the scalar reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_statistics_and_plan_equal_the_scalar_reference(name, form, tmp_path):
    left, right = INPUTS[name]()
    ref_profile = scalar_profile(left, right)
    got_left = as_form(form, left, tmp_path / "L.rcd")
    got_right = as_form(form, right, tmp_path / "R.rcd")
    got_profile = profile_join(got_left, got_right)
    # The plan is compared with what the scalar statistics lead to.
    from_ref = enumerate_candidates(ref_profile, MEMORY)
    got_plan = plan_join(got_left, got_right, MEMORY, cache=PlannerCache())
    assert_same_statistics(got_profile, ref_profile)
    assert_same_statistics(got_plan.profile, ref_profile)
    assert [c.describe() for c in got_plan.candidates] == [
        c.describe() for c in from_ref
    ]
    assert got_plan.chosen.describe() == from_ref[0].describe()


@pytest.mark.parametrize("n", [0, 1, 40, 64, 65, 3000])
def test_fingerprint_of_columns_equals_the_tuple_form(n, tmp_path):
    kpes = uniform_rects(n, seed=5, start_oid=17)
    expected = relation_fingerprint(kpes)
    assert relation_fingerprint(ColumnarRelation.from_kpes(kpes)) == expected
    assert relation_fingerprint(as_form("mapped", kpes, tmp_path / "x.rcd")) == expected


def test_columnar_inputs_plan_and_join_under_auto():
    """``method="auto"`` used to index the relation and raise TypeError."""
    # The chosen engine reads the columns (pbsm) or iterates tuples (shj).
    for name, method, memory in (
        ("uniform", "pbsm", PBSM_MEMORY),
        ("clustered", "shj", MEMORY),
    ):
        left, right = INPUTS[name]()
        expected = sorted(brute_force_pairs(left, right))
        result = spatial_join(
            ColumnarRelation.from_kpes(left),
            ColumnarRelation.from_kpes(right),
            memory,
            method="auto",
            cache=PlannerCache(),
        )
        assert result.plan.chosen.method == method
        assert sorted(result.pairs) == expected


# ----------------------------------------------------------------------
# list inputs: converted once per call
# ----------------------------------------------------------------------
@pytest.fixture
def conversions(monkeypatch):
    """Counts the ``from_kpes`` calls that build columns from tuples."""
    built = []
    real = ColumnarRelation.from_kpes.__func__

    def counting(cls, kpes):
        if getattr(kpes, "columnar", None) is None:
            built.append(len(kpes))
        return real(cls, kpes)

    monkeypatch.setattr(ColumnarRelation, "from_kpes", classmethod(counting))
    return built


def test_list_inputs_are_converted_once_per_call(conversions):
    left, right = INPUTS["uniform"]()
    result = spatial_join(left, right, PBSM_MEMORY, method="auto", cache=PlannerCache())
    assert "sweep_numpy" in result.plan.chosen.describe()
    assert conversions == [len(left), len(right)]
    assert sorted(result.pairs) == sorted(brute_force_pairs(left, right))


def test_a_plan_executed_on_other_inputs_joins_those(conversions):
    left, right = INPUTS["uniform"]()
    other_left, other_right = INPUTS["below_sample_size"]()
    plan = plan_join(left, right, MEMORY)
    result = plan.execute(other_left, other_right)
    assert sorted(result.pairs) == sorted(brute_force_pairs(other_left, other_right))


def test_a_cache_hit_converts_nothing_for_the_planner(conversions):
    left, right = INPUTS["clustered"]()
    cache = PlannerCache()
    plan_join(left, right, MEMORY, cache=cache)
    del conversions[:]
    hit = plan_join(left, right, MEMORY, cache=cache)
    assert hit.from_cache and conversions == []


# ----------------------------------------------------------------------
# non-finite coordinates
# ----------------------------------------------------------------------
# The ids keep the suffix of the backend column this matrix had while a
# scalar twin of the check existed, so each row's history lines up.
@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(math.nan, id="nan-numpy_backend"),
        pytest.param(math.inf, id="inf-numpy_backend"),
        pytest.param(-math.inf, id="-inf-numpy_backend"),
    ],
)
@pytest.mark.parametrize("side", ["left", "right"])
def test_non_finite_coordinates_are_rejected_up_front(bad, side):
    left, right = INPUTS["below_sample_size"]()
    target = left if side == "left" else right
    oid = target[41][0]
    target[41] = (oid, 0.1, bad, 0.2, 0.3)
    target[99] = (target[99][0], bad, 0.1, 0.2, 0.3)
    message = rf"{side} relation has a non-finite coordinate at row 41 \(oid={oid}\)"
    with pytest.raises(ValueError, match=message):
        profile_join(left, right)
    with pytest.raises(ValueError, match=message):
        spatial_join(left, right, MEMORY, method="auto", cache=PlannerCache())


# ----------------------------------------------------------------------
# the sampled duplicate factor: once per grid, same estimates
# ----------------------------------------------------------------------
def test_dup_factor_is_replayed_once_per_distinct_grid(monkeypatch):
    left, right = INPUTS["uniform"]()
    profile = profile_join(left, right)
    assert profile.sample_pairs
    keys = []
    real = cost_module._sampled_dup_factor

    def counting(jp, side, n_partitions):
        keys.append((side, n_partitions))
        return real(jp, side, n_partitions)

    monkeypatch.setattr(cost_module, "_sampled_dup_factor", counting)
    candidates = enumerate_candidates(profile, MEMORY, workers=2)
    pbsm = [c for c in candidates if c.method == "pbsm"]
    assert len(keys) == len(set(keys)) < len(pbsm)
    for candidate in pbsm:
        alone = estimate_pbsm(
            profile,
            MEMORY,
            CostModel(),
            t_factor=candidate.kwargs["t_factor"],
            workers=candidate.kwargs.get("workers", 1),
        )
        assert alone.total_seconds == candidate.estimate.total_seconds
        assert alone.predicted == candidate.estimate.predicted


# ----------------------------------------------------------------------
# the cache holds a bounded amount of statistics
# ----------------------------------------------------------------------
def test_profiles_and_histograms_are_evicted_lru():
    cache = PlannerCache(max_plans=2)  # room for 4 profiles / histograms
    relations = [uniform_rects(50, seed=s, start_oid=1000 * s) for s in range(7)]
    space = (0.0, 0.0, 2.0, 2.0)
    for kpes in relations[:4]:
        cache.relation_profile(kpes)
        cache.joint_histogram(kpes, relation_fingerprint(kpes), space)
    first = cache.relation_profile(relations[0])  # refresh the oldest
    first_hist = cache.joint_histogram(relations[0], first.fingerprint, space)
    for kpes in relations[4:]:
        cache.relation_profile(kpes)
        cache.joint_histogram(kpes, relation_fingerprint(kpes), space)
    stats = cache.stats()
    assert stats["profiles"] == 4 and stats["histograms"] == 4
    assert (stats["profile_hits"], stats["profile_misses"]) == (1, 7)
    # The refreshed entry outlived three insertions; the next-oldest did not.
    assert cache.relation_profile(relations[0]) is first
    assert cache.joint_histogram(relations[0], first.fingerprint, space) is first_hist
    cache.relation_profile(relations[1])
    stats = cache.stats()
    assert (stats["profile_hits"], stats["profile_misses"]) == (2, 8)
    assert stats["profiles"] == 4


def test_planning_survives_a_cache_smaller_than_one_join():
    left, right = INPUTS["below_sample_size"]()
    cache = PlannerCache(max_plans=1)
    cold = plan_join(left, right, MEMORY, cache=cache)
    assert plan_join(left, right, MEMORY, cache=cache).from_cache
    other = plan_join(right, left, MEMORY, cache=cache)
    assert not other.from_cache and cache.stats()["plans"] == 1
    assert cold.chosen.describe()


# ----------------------------------------------------------------------
# the same rectangles get the same plan in any record order
# ----------------------------------------------------------------------
def test_the_benchmark_join_gets_one_plan_in_any_record_order():
    """The plan is the cheapest candidate, nothing else.

    While two-layer was enumerated next to RPM the pair sat within 0.02 %
    of each other and the order of the records picked the winner; with one
    duplicate scheme the runner-up is a different ``t`` or executor, 1 % or
    more behind, and forty record orders of both benchmark shapes agree."""
    from benchmarks.e2e import specs

    for spec in (specs.UNI30K.scaled(5_000), specs.TIGER50K.scaled(5_000)):
        chosen = {1: set(), 2: set()}
        for seed in range(1, 41):
            left, right = specs.make_relations(spec, seed)
            for workers in chosen:
                plan = plan_join(left, right, mb(spec.memory_mb), workers=workers)
                assert plan.chosen is plan.candidates[0]
                chosen[workers].add(plan.chosen.describe())
        assert all(len(plans) == 1 for plans in chosen.values()), (spec.name, chosen)


@pytest.mark.skipif(not shm_enabled(), reason="prices the process executor")
@pytest.mark.parametrize(
    "dataset, chosen, total_seconds",
    [
        (
            "tiger50k",
            "pbsm(exec=process, internal=sweep_numpy, t=2.0, workers=2)",
            4.822823964504288,
        ),
        (
            "uni30k",
            "pbsm(exec=process, internal=sweep_numpy, t=3.0, workers=2)",
            5.487193437420711,
        ),
    ],
    ids=["tiger50k", "uni30k"],
)
def test_the_served_plans_are_the_static_ones_of_the_parent(dataset, chosen, total_seconds):
    """What ``EngineHost.plan(workers=2)`` chooses is the cheapest RPM
    candidate of the parent, at the parent's estimate, among 15 candidates:
    columnar PBSM x ``t`` sequentially and on the process executor, S3J x
    3, SHJ and SSSJ (uni30k's two-layer twin, 0.09 % cheaper in simulated
    seconds and 1.1x slower on the clock, is not proposed, nor are the
    thread executor's three, nor the tuple-internal, sort and R-tree
    candidates that never won).  The parent chose ``t=1.0`` for both (4.60 and
    3.70 simulated seconds) while parallel estimates ignored the overflow
    model; parallel runs repartition now and their candidates are priced
    with that model, so the cheapest process plan is the smallest ``t``
    at which no pair is predicted to overflow: ``t=2.0`` (16 partitions)
    and ``t=3.0`` (58)."""
    from benchmarks.e2e import specs

    spec = {"tiger50k": specs.TIGER50K, "uni30k": specs.UNI30K}[dataset]
    left, right = specs.make_relations(spec, specs.DEFAULT_SEED)
    plan = plan_join(left, right, mb(spec.memory_mb), workers=2)
    assert len(plan.candidates) == 15
    assert plan.chosen.describe() == chosen
    assert plan.chosen.estimate.total_seconds == total_seconds


# ----------------------------------------------------------------------
# plan drift against the parent commit
# ----------------------------------------------------------------------
def observe(left, right, memory):
    plan = plan_join(left, right, memory)
    return {
        "chosen": plan.chosen.describe(),
        "candidates": [c.describe() for c in plan.candidates],
        "est_results": plan.profile.est_results,
        "sample_pairs": len(plan.profile.sample_pairs),
    }


def pinned_workloads(dataset):
    """``(name, left, right, memory)`` of one pinned dataset."""
    if dataset in PLANNER_PATTERNS:  # the rows planner_sweep(4000) makes of it
        left, right = planner_pair(dataset, 4000)
        return [
            (
                f"sweep/{dataset}/m={fraction:.2f}",
                left,
                right,
                memory_for_fraction(left, right, fraction),
            )
            for fraction in PLANNER_MEMORY_FRACTIONS
        ]
    from benchmarks.e2e import specs

    spec = {"tiger50k": specs.TIGER50K, "uni30k": specs.UNI30K}[dataset]
    left, right = specs.make_relations(spec, specs.DEFAULT_SEED)
    return [(f"e2e/{dataset}", left, right, mb(spec.memory_mb))]


@pytest.mark.parametrize("dataset", [*PLANNER_PATTERNS, "tiger50k", "uni30k"])
def test_plans_equal_the_parent_commit(dataset, tmp_path):
    pinned = json.loads(PINNED.read_text())["numpy"]
    workloads = pinned_workloads(dataset)
    assert workloads
    _, left, right, _ = workloads[0]
    for form in FORMS:
        got_left = as_form(form, left, tmp_path / "L.rcd")
        got_right = as_form(form, right, tmp_path / "R.rcd")
        for name, _, _, memory in workloads:
            assert observe(got_left, got_right, memory) == pinned[name], (name, form)


# ----------------------------------------------------------------------
# planning stays a small share of a mapped auto join
# ----------------------------------------------------------------------
def test_planning_is_a_small_share_of_a_mapped_auto_join(tmp_path):
    left, right = pair(uniform_rects, 20_000)
    mapped_left = as_form("mapped", left, tmp_path / "L.rcd")
    mapped_right = as_form("mapped", right, tmp_path / "R.rcd")
    shares = []
    for _ in range(3):  # one cold call can be preempted mid-plan
        result = spatial_join(
            mapped_left, mapped_right, mb(0.04), method="auto", cache=PlannerCache()
        )
        assert not result.plan.from_cache
        stats = result.stats
        shares.append(stats.planning_seconds / stats.total_wall_seconds)
    # 0.07 with column statistics, 0.74 with the per-record loops.
    assert min(shares) <= 0.25, shares
