"""Integration tests for the full PBSM driver."""

import pytest

from repro.core.phases import PHASE_DEDUP, PHASE_JOIN, PHASE_PARTITION
from repro.core.rect import KPE
from repro.core.result import JoinStats
from repro.internal import brute_force_pairs
from repro.io.costmodel import mb
from repro.pbsm import PBSM

from tests.conftest import random_kpes

INTERNALS = ["sweep_list", "sweep_trie", "nested_loops", "sweep_tree"]


class TestConfiguration:
    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            PBSM(0)

    def test_rejects_unknown_dedup(self):
        # Duplicates are removed online (RPM) or by the final sort; no
        # mode keeps them.
        for dedup in ("magic", "none"):
            with pytest.raises(ValueError, match=r"\('rpm', 'sort'\)"):
                PBSM(1000, dedup=dedup)

    def test_rejects_unknown_internal(self):
        with pytest.raises(ValueError):
            PBSM(1000, internal="quantum")

    def test_algorithm_label(self):
        res = PBSM(10_000, internal="sweep_trie", dedup="rpm").run(
            random_kpes(5, 1), random_kpes(5, 2, start_oid=100)
        )
        assert res.stats.algorithm == "PBSM(sweep_trie,RPM)"


@pytest.mark.parametrize("dedup", ["rpm", "sort"])
@pytest.mark.parametrize("internal", INTERNALS)
class TestCorrectness:
    def test_matches_brute_force(self, dedup, internal, small_pair):
        left, right = small_pair
        truth = set(brute_force_pairs(left, right))
        res = PBSM(4096, internal=internal, dedup=dedup).run(left, right)
        assert res.pair_set() == truth
        assert not res.has_duplicates()

    def test_large_memory_single_partition(self, dedup, internal, small_pair):
        left, right = small_pair
        truth = set(brute_force_pairs(left, right))
        res = PBSM(mb(64), internal=internal, dedup=dedup).run(left, right)
        assert res.stats.n_partitions == 1
        assert res.pair_set() == truth


class TestEdgeCases:
    def test_empty_inputs(self):
        assert len(PBSM(1000).run([], [])) == 0
        assert len(PBSM(1000).run(random_kpes(5, 1), [])) == 0
        assert len(PBSM(1000).run([], random_kpes(5, 1))) == 0

    def test_self_join(self):
        rel = random_kpes(120, 5, max_edge=0.1)
        truth = set(brute_force_pairs(rel, rel))
        res = PBSM(2048, dedup="rpm").run(rel, rel)
        assert res.pair_set() == truth
        assert not res.has_duplicates()

    def test_all_identical_rectangles(self, monkeypatch):
        """Degenerate: replication cannot separate them; the repartition
        depth limit must stop the recursion and still produce the result."""
        monkeypatch.setattr("repro.pbsm.join.MAX_REPARTITION_DEPTH", 3)
        left = [KPE(i, 0.45, 0.45, 0.55, 0.55) for i in range(60)]
        right = [KPE(100 + i, 0.5, 0.5, 0.6, 0.6) for i in range(60)]
        res = PBSM(512, dedup="rpm").run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))
        assert not res.has_duplicates()
        assert res.stats.memory_overruns > 0

    def test_single_records(self):
        left = [KPE(1, 0.1, 0.1, 0.9, 0.9)]
        right = [KPE(2, 0.5, 0.5, 0.95, 0.95)]
        res = PBSM(1000).run(left, right)
        assert res.pairs == [(1, 2)]


class TestStatistics:
    def test_replication_accounted(self, small_pair):
        left, right = small_pair
        res = PBSM(2048).run(left, right)
        st = res.stats
        assert st.records_partitioned >= st.n_left + st.n_right
        assert st.replicas_created == st.records_partitioned - st.n_left - st.n_right
        assert st.replication_rate >= 1.0

    def test_rpm_suppression_counted(self, small_pair):
        left, right = small_pair
        res = PBSM(2048, dedup="rpm").run(left, right)
        # With several partitions and replication there must be duplicates
        # to suppress.
        assert res.stats.duplicates_suppressed > 0

    def test_sort_mode_counts_match_rpm_suppression(self, small_pair):
        """Both variants meet the same duplicates, one sorts them out, the
        other suppresses them online."""
        left, right = small_pair
        rpm = PBSM(2048, dedup="rpm").run(left, right)
        srt = PBSM(2048, dedup="sort").run(left, right)
        assert rpm.stats.duplicates_suppressed == srt.stats.duplicates_sorted_out

    def test_sort_mode_has_dedup_io_rpm_has_none(self, small_pair):
        left, right = small_pair
        rpm = PBSM(2048, dedup="rpm").run(left, right)
        srt = PBSM(2048, dedup="sort").run(left, right)
        assert rpm.stats.io_units_by_phase.get(PHASE_DEDUP, 0.0) == 0.0
        assert srt.stats.io_units_by_phase.get(PHASE_DEDUP, 0.0) > 0.0

    def test_phase_io_recorded(self, small_pair):
        left, right = small_pair
        res = PBSM(2048).run(left, right)
        assert res.stats.io_units_by_phase[PHASE_PARTITION] > 0
        assert res.stats.io_units_by_phase[PHASE_JOIN] > 0

    def test_sim_seconds_positive(self, small_pair):
        left, right = small_pair
        res = PBSM(2048).run(left, right)
        assert res.stats.sim_io_seconds > 0
        assert res.stats.sim_cpu_seconds > 0
        assert res.stats.sim_seconds == pytest.approx(
            res.stats.sim_io_seconds + res.stats.sim_cpu_seconds
        )

    def test_peak_memory_tracked(self, small_pair):
        left, right = small_pair
        res = PBSM(4096).run(left, right)
        assert 0 < res.stats.peak_memory_bytes

    def test_repartition_triggers_on_tight_memory(self):
        rel_a = random_kpes(300, 31, max_edge=0.02)
        rel_b = random_kpes(300, 32, start_oid=9000, max_edge=0.02)
        res = PBSM(1024, t_factor=1.0, tiles_per_partition=1).run(rel_a, rel_b)
        assert res.pair_set() == set(brute_force_pairs(rel_a, rel_b))

    def test_t_factor_reduces_repartitioning(self):
        """Section 3.2.3: t > 1 avoids the borderline-P cliff."""
        rel_a = random_kpes(400, 33, max_edge=0.02)
        rel_b = random_kpes(400, 34, start_oid=9000, max_edge=0.02)
        memory = (len(rel_a) + len(rel_b)) * 20 // 2  # P ~= 2.0 borderline
        low_t = PBSM(memory, t_factor=1.0).run(rel_a, rel_b)
        high_t = PBSM(memory, t_factor=1.3).run(rel_a, rel_b)
        assert high_t.stats.repartition_events <= low_t.stats.repartition_events


class TestSharedDriver:
    """A run's state lives in its generator, never on the driver: what two
    ``SpatialJoinOp``s over one ``PBSM`` instance rely on."""

    ENGINES = ["sweep_list", "sweep_numpy"]

    @staticmethod
    def workload():
        return (
            random_kpes(600, 41, max_edge=0.04),
            random_kpes(600, 42, start_oid=9000, max_edge=0.04),
        )

    @pytest.mark.parametrize("internal", ENGINES)
    def test_interleaved_iterators_each_equal_a_lone_run(self, internal):
        left, right = self.workload()
        driver = PBSM(2048, internal=internal)
        alone = driver.run(left, right)
        assert alone.stats.repartition_events > 0
        assert alone.stats.duplicates_suppressed > 0
        stats = [JoinStats(), JoinStats()]
        iterators = [driver.iter_pairs(left, right, s) for s in stats]
        pairs = [[], []]
        live = [0, 1]
        while live:  # one next() each, in turn
            for i in list(live):
                try:
                    pairs[i].append(next(iterators[i]))
                except StopIteration:
                    live.remove(i)
        for got, seen in zip(pairs, stats):
            assert got == alone.pairs
            for field in (
                "duplicates_suppressed",
                "repartition_events",
                "cpu_by_phase",
                "io_units_by_phase",
            ):
                assert getattr(seen, field) == getattr(alone.stats, field), field

    @pytest.mark.parametrize("internal", ENGINES)
    def test_abandoned_iterator_leaves_nothing_on_the_driver(self, internal):
        left, right = self.workload()
        driver = PBSM(2048, internal=internal)
        before = dict(vars(driver))
        pairs = driver.iter_pairs(left, right)
        next(pairs)
        pairs.close()
        assert vars(driver) == before


class TestConvenienceApi:
    def test_pbsm_join(self, small_pair):
        left, right = small_pair
        res = PBSM(4096, internal="sweep_trie").run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))
