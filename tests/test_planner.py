"""The cost-based join planner: profiles, costs, cache, and method="auto"."""

from __future__ import annotations

import pytest

from repro import JOIN_METHODS, SPATIAL_JOIN_METHODS, mb, spatial_join
from repro.bench.workloads import (
    PLANNER_PATTERNS,
    memory_for_fraction,
    planner_pair,
)
from repro.datasets import clustered_rects, uniform_rects
from repro.datasets.patterns import mixed_scale
from repro.io.costmodel import CostModel
from repro.planner import (
    DEFAULT_T_GRID,
    JoinPlan,
    PlanCandidate,
    PlannerCache,
    enumerate_candidates,
    estimate_pbsm,
    estimate_shj,
    estimate_sssj,
    plan_join,
    profile_join,
    relation_fingerprint,
)
from repro.planner.stats import RelationProfile

from tests.conftest import random_kpes


COST = CostModel()


# ----------------------------------------------------------------------
# profiles and fingerprints
# ----------------------------------------------------------------------
class TestRelationProfile:
    def test_profile_derivation(self):
        kpes = random_kpes(500, seed=7, max_edge=0.1)
        profile = RelationProfile.build(kpes)
        assert profile.n == 500
        # random_kpes edges are uniform on [0, 0.1): the mean is ~0.05.
        assert 0.03 < profile.avg_width < 0.07
        assert 0.03 < profile.avg_height < 0.07
        assert profile.coverage > 0
        assert profile.skew >= 1.0
        # E[w*h] of independent edges ~ E[w]*E[h].
        assert profile.avg_area == pytest.approx(
            profile.avg_width * profile.avg_height, rel=0.25
        )

    def test_empty_relation(self):
        profile = RelationProfile.build([])
        assert profile.n == 0
        assert profile.skew == 1.0

    def test_skew_orders_clustered_above_uniform(self):
        uniform = RelationProfile.build(uniform_rects(800, seed=1))
        clustered = RelationProfile.build(clustered_rects(800, seed=1))
        assert clustered.skew > uniform.skew

    def test_heavy_tail_shows_in_avg_area(self):
        uniform = RelationProfile.build(uniform_rects(800, seed=1))
        mixed = RelationProfile.build(mixed_scale(800, seed=1))
        uniform_gap = uniform.avg_area / (uniform.avg_width * uniform.avg_height)
        mixed_gap = mixed.avg_area / (mixed.avg_width * mixed.avg_height)
        assert mixed_gap > uniform_gap * 2

    def test_fingerprint_distinguishes_content(self):
        a = random_kpes(300, seed=1)
        b = random_kpes(300, seed=2)
        assert relation_fingerprint(a) == relation_fingerprint(a)
        assert relation_fingerprint(a) != relation_fingerprint(b)
        assert relation_fingerprint(a) != relation_fingerprint(a[:-1])


class TestJoinProfile:
    def test_estimates_result_cardinality(self, small_pair):
        left, right = small_pair
        actual = len(spatial_join(left, right, mb(0.25)))
        jp = profile_join(left, right)
        assert jp.n_left == len(left)
        assert jp.n_right == len(right)
        # Order-of-magnitude sanity: the planner only needs ranking.
        assert actual / 4 <= jp.est_results <= actual * 4

    def test_profiles_carry_joint_space(self, small_pair):
        jp = profile_join(*small_pair)
        xl, yl, xh, yh = jp.space
        assert xl < xh and yl < yh


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------
class TestCostRanking:
    def _profile(self, n):
        left = random_kpes(n, seed=3, max_edge=0.05)
        right = random_kpes(n, seed=4, start_oid=10**6, max_edge=0.05)
        return profile_join(left, right)

    def test_costs_monotone_in_input_size(self):
        """Bigger inputs never get cheaper, for every estimator."""
        small = self._profile(300)
        large = self._profile(3000)
        memory = 16_000
        for estimate in (estimate_pbsm, estimate_shj, estimate_sssj):
            cheap = estimate(small, memory, COST)
            dear = estimate(large, memory, COST)
            assert dear.total_seconds > cheap.total_seconds, estimate.__name__

    def test_pbsm_cost_monotone_in_memory(self):
        jp = self._profile(2000)
        tight = estimate_pbsm(jp, 8_000, COST)
        roomy = estimate_pbsm(jp, 160_000, COST)
        assert roomy.total_seconds < tight.total_seconds

    def test_estimates_have_breakdown_and_predictions(self):
        jp = self._profile(500)
        est = estimate_pbsm(jp, 16_000, COST)
        assert est.total_seconds == pytest.approx(
            est.io_seconds + est.cpu_seconds
        )
        assert est.breakdown
        assert est.predicted["n_partitions"] >= 1
        assert est.predicted["detected_pairs"] >= est.predicted["est_results"]


class TestEnumeration:
    def test_candidates_cover_methods_and_sort_by_cost(self, small_pair):
        """The candidates the planner can choose, and no other: columnar
        RPM PBSM x the t grid, S3J x 3, SHJ and SSSJ.  No R-tree join even
        at a budget holding both inputs (where one used to be priced)."""
        left, right = small_pair
        jp = profile_join(left, right)
        memory = (len(left) + len(right)) * COST.kpe_bytes
        candidates = enumerate_candidates(jp, memory, COST)
        assert {c.method for c in candidates} == {"pbsm", "s3j", "sssj", "shj"}
        assert len(candidates) == len(DEFAULT_T_GRID) + 3 + 2 == 10
        totals = [c.estimate.total_seconds for c in candidates]
        assert totals == sorted(totals)
        pbsm = sorted(
            (c.kwargs for c in candidates if c.method == "pbsm"),
            key=lambda kwargs: kwargs["t_factor"],
        )
        assert pbsm == [
            {"internal": "sweep_numpy", "t_factor": t, "dedup": "rpm"}
            for t in DEFAULT_T_GRID
        ]

    def test_methods_filter(self, small_pair):
        """There is no method or ``t`` filter: the planner enumerates what
        it can choose, and a caller asking for either gets a TypeError."""
        left, right = small_pair
        jp = profile_join(left, right)
        for knob in ({"methods": ("sssj",)}, {"t_grid": (1.2,)}):
            with pytest.raises(TypeError):
                enumerate_candidates(jp, 16_000, COST, **knob)
            with pytest.raises(TypeError):
                plan_join(left, right, 16_000, **knob)

    def test_parallel_candidates_follow_what_can_run(self, small_pair, monkeypatch):
        # No transport, scheduler or thread axis: a process candidate per
        # t exactly when its shared-memory segment can exist (without it
        # the process executor would run the in-process loop).
        from repro.kernels.shm import shm_enabled

        jp = profile_join(*small_pair)
        per_executor = len(DEFAULT_T_GRID)

        def parallel_executors():
            candidates = enumerate_candidates(jp, 16_000, COST, workers=2)
            for c in candidates:
                assert "shared_memory" not in c.kwargs
                assert "scheduler" not in c.kwargs
                assert "sched=" not in c.describe()
            parallel = [c.kwargs["executor"] for c in candidates if "workers" in c.kwargs]
            sequential = enumerate_candidates(jp, 16_000, COST)
            assert len(candidates) == len(sequential) + len(parallel)
            assert all(parallel.count(e) == per_executor for e in set(parallel))
            return set(parallel)

        expected = {"process"} if shm_enabled() else set()
        assert parallel_executors() == expected
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        assert parallel_executors() == set()
        with pytest.raises(TypeError):
            estimate_pbsm(jp, 16_000, COST, workers=2, scheduler="static")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_duplicate_handling_is_not_enumerated(self, small_pair, workers):
        """Every PBSM candidate runs RPM; there is no sort-based
        reference (``repro.bench fig3`` reproduces that comparison).  A
        parallel candidate carries no ``dedup``: ``PBSM(workers=)`` runs
        RPM only."""
        from repro.kernels.shm import shm_enabled

        jp = profile_join(*small_pair)
        candidates = enumerate_candidates(jp, 16_000, COST, workers=workers)
        schemes = [
            c.kwargs.get("dedup", "rpm") for c in candidates if c.method == "pbsm"
        ]
        parallel = [c for c in candidates if "workers" in c.kwargs]
        assert all("dedup" not in c.kwargs for c in parallel)
        assert set(schemes) == {"rpm"}
        assert not [c for c in candidates if c.kwargs.get("dedup") == "sort"]
        if shm_enabled():
            # sweep_numpy x the t grid (+ process x the t grid), s3j x 3,
            # shj, sssj.
            per_t = {1: 1, 2: 2}[workers]
            assert len(candidates) == per_t * len(DEFAULT_T_GRID) + 3 + 2

    def test_describe_is_readable(self, small_pair):
        jp = profile_join(*small_pair)
        candidates = enumerate_candidates(jp, 16_000, COST)
        described = " ".join(c.describe() for c in candidates)
        assert "pbsm(" in described and "t=1.2" in described


# ----------------------------------------------------------------------
# planner cache
# ----------------------------------------------------------------------
class TestPlannerCache:
    def test_profile_cache_hits_on_same_content(self, small_pair):
        left, right = small_pair
        cache = PlannerCache()
        plan_join(left, right, 16_000, cache=cache)
        first = dict(cache.stats())
        plan_join(list(left), list(right), 16_000, cache=cache)
        second = cache.stats()
        assert second["plan_hits"] == first["plan_hits"] + 1
        assert second["profile_misses"] == first["profile_misses"]

    def test_cached_plan_skips_profiling(self, small_pair):
        left, right = small_pair
        cache = PlannerCache()
        cold = plan_join(left, right, 16_000, cache=cache)
        cold_choice = cold.chosen.describe()
        cold_seconds = cold.planning_seconds
        warm = plan_join(left, right, 16_000, cache=cache)
        assert warm.from_cache
        assert warm.chosen.describe() == cold_choice
        # A cache hit must cost (near) nothing: no re-profiling.
        assert warm.planning_seconds < cold_seconds

    def test_cache_hit_returns_a_per_call_copy(self, small_pair):
        """A hit must not re-stamp (or park results on) the shared plan:
        concurrent served queries would race on those fields and the
        cache would pin the last result's pair list."""
        left, right = small_pair
        cache = PlannerCache()
        cold = plan_join(left, right, 16_000, cache=cache)
        cold_seconds = cold.planning_seconds
        cold_result = cold.execute(left, right)
        first = plan_join(left, right, 16_000, cache=cache)
        second = plan_join(left, right, 16_000, cache=cache)
        # The cold plan keeps what it was stamped with.
        assert not cold.from_cache
        assert cold.planning_seconds == cold_seconds
        assert cold.last_result is cold_result
        # Hits are distinct objects sharing the (immutable) enumeration.
        assert first.from_cache and second.from_cache
        assert first is not second and first is not cold
        assert first.chosen is cold.chosen and first.candidates is cold.candidates
        assert first.last_result is None and second.last_result is None
        first_result = first.execute(left, right)
        assert first.last_result is first_result
        assert second.last_result is None
        # Nothing executed through a returned plan lands in the cache.
        assert plan_join(left, right, 16_000, cache=cache).last_result is None
        assert "estimated vs. actual" in first.explain()
        assert "estimated vs. actual" not in second.explain()

    def test_memory_budget_is_part_of_the_key(self, small_pair):
        left, right = small_pair
        cache = PlannerCache()
        plan_join(left, right, 16_000, cache=cache)
        other = plan_join(left, right, 64_000, cache=cache)
        assert not other.from_cache

    def test_cost_model_is_part_of_the_key(self):
        """A caller with other coefficients must get its own plan, priced
        with its own model, not the first caller's."""
        left = uniform_rects(3000, seed=1, mean_edge=0.01)
        right = uniform_rects(3000, seed=2, start_oid=10**6, mean_edge=0.01)
        slow_disk = CostModel(page_transfer_seconds=0.2)
        cache = PlannerCache()
        default = plan_join(left, right, mb(0.02), cache=cache)
        other = plan_join(left, right, mb(0.02), cache=cache, cost_model=slow_disk)
        assert not default.from_cache and not other.from_cache
        assert cache.stats()["plan_misses"] == 2
        assert default.cost_model == CostModel() and other.cost_model is slow_disk
        assert default.chosen.describe() != other.chosen.describe()
        fresh = plan_join(left, right, mb(0.02), cost_model=slow_disk)
        assert other.chosen.describe() == fresh.chosen.describe()
        assert other.chosen.estimate == fresh.chosen.estimate
        # An equal model is the same key, as is the default spelled out.
        again = plan_join(
            left, right, mb(0.02), cache=cache,
            cost_model=CostModel(page_transfer_seconds=0.2),
        )
        assert again.from_cache and again.chosen is other.chosen
        assert plan_join(
            left, right, mb(0.02), cache=cache, cost_model=CostModel()
        ).chosen is default.chosen

    def test_plan_eviction_bounds_the_cache(self, small_pair):
        left, right = small_pair
        cache = PlannerCache(max_plans=2)
        for memory in (8_000, 16_000, 32_000):
            plan_join(left, right, memory, cache=cache)
        assert cache.stats()["plans"] <= 2

    def test_eviction_is_lru_not_fifo(self, small_pair):
        """A hit refreshes recency: the hot query survives eviction."""
        left, right = small_pair
        cache = PlannerCache(max_plans=2)
        plan_join(left, right, 8_000, cache=cache)   # A (oldest inserted)
        plan_join(left, right, 16_000, cache=cache)  # B
        plan_join(left, right, 8_000, cache=cache)   # touch A
        plan_join(left, right, 32_000, cache=cache)  # C evicts B, not A
        assert plan_join(left, right, 8_000, cache=cache).from_cache
        assert not plan_join(left, right, 16_000, cache=cache).from_cache

    def test_cache_is_thread_safe_under_concurrent_planning(self, small_pair):
        """The serve path plans from worker threads against one shared
        cache; hammer it from several threads and demand consistency."""
        import threading

        left, right = small_pair
        cache = PlannerCache(max_plans=8)
        errors = []

        def worker(memory):
            try:
                for _ in range(5):
                    plan = plan_join(left, right, memory, cache=cache)
                    assert plan.chosen is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                raise

        threads = [
            threading.Thread(target=worker, args=(8_000 + 1_000 * i,))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = cache.stats()
        assert stats["plans"] <= 8
        # 4 distinct keys x 5 rounds: every round after the first hits.
        assert stats["plan_hits"] >= 4 * 4


# ----------------------------------------------------------------------
# end-to-end: method="auto"
# ----------------------------------------------------------------------
def _pair_set(result):
    return set(result.pairs)


WORKLOADS = [
    ("uniform", lambda: (
        uniform_rects(400, seed=3),
        uniform_rects(400, seed=4, start_oid=10**6),
    )),
    ("clustered", lambda: (
        clustered_rects(400, seed=5),
        clustered_rects(400, seed=6, start_oid=10**6),
    )),
    ("mixed", lambda: (
        mixed_scale(400, seed=7),
        mixed_scale(400, seed=8, start_oid=10**6),
    )),
]


class TestAutoMethod:
    @pytest.mark.parametrize("name,make", WORKLOADS, ids=[w[0] for w in WORKLOADS])
    def test_auto_matches_every_fixed_method(self, name, make):
        left, right = make()
        memory = 6_000
        auto = spatial_join(left, right, memory, method="auto")
        expected = _pair_set(auto)
        assert expected, "workload must produce results"
        for method in JOIN_METHODS:
            fixed = spatial_join(left, right, memory, method=method)
            assert _pair_set(fixed) == expected, (name, method)

    def test_auto_runs_the_reference_point_method(self):
        """The benchmark's uni30k shape at 3k records, its cheapest PBSM
        plan executed (at this size SSSJ is cheaper): the two-layer twin
        used to win here."""
        from benchmarks.e2e import specs
        from repro.internal.brute import brute_force_pairs

        spec = specs.UNI30K.scaled(3_000)
        left, right = specs.make_relations(spec, specs.DEFAULT_SEED)
        plan = plan_join(left, right, mb(spec.memory_mb), cache=PlannerCache())
        plan.chosen = next(c for c in plan.candidates if c.method == "pbsm")
        assert plan.chosen.kwargs["dedup"] == "rpm"
        result = plan.execute(left, right)
        assert result.stats.duplicates_suppressed > 0
        assert sorted(result.pairs) == sorted(brute_force_pairs(left, right))

    def test_auto_attaches_plan(self, small_pair):
        left, right = small_pair
        result = spatial_join(left, right, 16_000, method="auto")
        assert isinstance(result.plan, JoinPlan)
        assert isinstance(result.plan.chosen, PlanCandidate)
        assert result.plan.last_result is result

    def test_choice_is_cost_based_not_hardcoded(self):
        """Different workload shapes must produce different choices.

        Small inputs all route to SSSJ (correctly — sorting a few pages
        beats partitioning), so this runs at a size where the regimes
        separate: the planner must not collapse to one answer.
        """
        chosen = set()
        for pattern in PLANNER_PATTERNS:
            left, right = planner_pair(pattern, 3000)
            for fraction in (0.15, 1.0):
                memory = memory_for_fraction(left, right, fraction)
                plan = plan_join(left, right, memory)
                chosen.add(plan.chosen.describe())
        assert len(chosen) > 1

    def test_auto_rejects_unknown_method(self, small_pair):
        left, right = small_pair
        with pytest.raises(ValueError, match="auto"):
            spatial_join(left, right, 16_000, method="nope")

    def test_registry_exposes_auto(self):
        assert "auto" in SPATIAL_JOIN_METHODS
        assert "auto" not in JOIN_METHODS


class TestExplain:
    def test_explain_lists_chosen_and_rejected(self, small_pair):
        left, right = small_pair
        plan = plan_join(left, right, 16_000)
        text = plan.explain()
        assert "JOIN PLAN" in text
        assert plan.chosen.describe() in text
        # All rejected candidates are visible too.
        for candidate in plan.candidates:
            assert candidate.describe() in text
        assert "estimated vs. actual" not in text

    def test_explain_after_execution_reports_actuals(self, small_pair):
        left, right = small_pair
        plan = plan_join(left, right, 16_000)
        result = plan.execute(left, right)
        text = plan.explain(verbose=True)
        assert "estimated vs. actual" in text
        assert f"{result.stats.n_results:,}" in text
        assert "sim seconds" in text
        assert "phase estimate" in text

    def test_estimates_land_near_actuals(self, small_pair):
        """The EXPLAIN est-vs-actual ratio stays within a small factor."""
        left, right = small_pair
        plan = plan_join(left, right, 16_000)
        result = plan.execute(left, right)
        est = plan.chosen.estimate.total_seconds
        actual = result.stats.sim_seconds
        assert actual / 3 <= est <= actual * 3
