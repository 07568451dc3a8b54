"""Unit tests for the simulated disk and its phase accounting."""

import pytest

from repro.io.costmodel import CostModel
from repro.io.disk import IoCounters, SimulatedDisk


class TestIoCounters:
    def test_units_formula(self):
        cost = CostModel(pt_ratio=5.0)
        c = IoCounters(read_requests=2, pages_read=10, write_requests=1, pages_written=4)
        # 3 requests * PT + 14 pages
        assert c.units(cost) == pytest.approx(3 * 5.0 + 14)

    def test_add(self):
        a = IoCounters(read_requests=1, pages_read=2)
        a.add(IoCounters(write_requests=3, pages_written=4, pages_read=1))
        assert a.read_requests == 1
        assert a.pages_read == 3
        assert a.write_requests == 3
        assert a.pages_written == 4


class TestSimulatedDisk:
    def test_charges_to_current_phase(self):
        disk = SimulatedDisk()
        with disk.phase("alpha"):
            disk.charge_read(10)
        with disk.phase("beta"):
            disk.charge_write(4, requests=2)
        assert disk.counters["alpha"].pages_read == 10
        assert disk.counters["alpha"].read_requests == 1
        assert disk.counters["beta"].pages_written == 4
        assert disk.counters["beta"].write_requests == 2

    def test_nested_phases_restore(self):
        disk = SimulatedDisk()
        with disk.phase("outer"):
            with disk.phase("inner"):
                disk.charge_read(1)
            disk.charge_read(2)
        assert disk.counters["inner"].pages_read == 1
        assert disk.counters["outer"].pages_read == 2
        disk.charge_read(4)  # back in the default phase
        assert disk.counters["default"].pages_read == 4

    def test_zero_page_charges_are_free(self):
        disk = SimulatedDisk()
        disk.charge_read(0)
        disk.charge_write(0)
        assert disk.total_units() == 0.0
        assert disk.counters == {}

    def test_units_by_phase(self):
        cost = CostModel(pt_ratio=2.0)
        disk = SimulatedDisk(cost)
        with disk.phase("p"):
            disk.charge_read(3)  # 2 + 3 = 5 units
        assert disk.units_by_phase() == {"p": pytest.approx(5.0)}
        assert disk.total_units() == pytest.approx(5.0)

    def test_total_counters(self):
        disk = SimulatedDisk()
        with disk.phase("a"):
            disk.charge_read(1)
        with disk.phase("b"):
            disk.charge_write(2)
        total = disk.total_counters()
        assert total.pages_read == 1
        assert total.pages_written == 2
