"""Tests for the stats report formatter."""

from repro import PBSM
from repro.core.report import format_stats
from repro.core.result import JoinStats

from tests.conftest import random_kpes


class TestFormatStats:
    def _stats(self):
        left = random_kpes(150, 1, max_edge=0.08)
        right = random_kpes(150, 2, start_oid=9_000, max_edge=0.08)
        return PBSM(2048).run(left, right).stats

    def test_contains_headline_fields(self):
        text = format_stats(self._stats())
        assert "algorithm" in text
        assert "PBSM" in text
        assert "results" in text
        assert "io units" in text
        assert "simulated seconds" in text

    def test_verbose_adds_phases(self):
        stats = self._stats()
        brief = format_stats(stats, verbose=False)
        verbose = format_stats(stats, verbose=True)
        assert "per-phase simulated seconds:" not in brief
        assert "per-phase simulated seconds:" in verbose
        assert "per-phase operation counts:" in verbose
        assert "partition" in verbose

    def test_empty_stats_render(self):
        text = format_stats(JoinStats(algorithm="X"))
        assert "algorithm          X" in text

    def test_conditional_lines(self):
        stats = JoinStats(algorithm="Y", duplicates_sorted_out=5, memory_overruns=2)
        text = format_stats(stats)
        assert "duplicates (sort)  5" in text
        assert "memory overruns    2" in text
        assert "duplicates (RPM)" not in text
