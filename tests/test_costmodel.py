"""Unit tests for the I/O + CPU cost model."""

import dataclasses
import inspect

import pytest

from repro.core.stats import CpuCounters
from repro.io.costmodel import CostModel, mb


class TestPageArithmetic:
    def test_records_per_page(self):
        cost = CostModel(page_size=8192, kpe_bytes=20)
        assert cost.records_per_page(20) == 409

    def test_records_per_page_at_least_one(self):
        cost = CostModel(page_size=16)
        assert cost.records_per_page(1000) == 1

    def test_pages_for_zero(self):
        assert CostModel().pages_for(0, 20) == 0

    def test_pages_for_exact_fit(self):
        cost = CostModel(page_size=100)
        assert cost.pages_for(10, 10) == 1
        assert cost.pages_for(11, 10) == 2

    def test_pages_for_rounds_up(self):
        cost = CostModel(page_size=8192)
        assert cost.pages_for(410, 20) == 2

    def test_bytes_for(self):
        assert CostModel().bytes_for(100, 20) == 2000


class TestRequestCost:
    def test_request_units_is_pt_plus_n(self):
        cost = CostModel(pt_ratio=5.0)
        assert cost.request_units(1) == 6.0
        assert cost.request_units(10) == 15.0

    def test_request_units_zero_pages_free(self):
        assert CostModel().request_units(0) == 0.0

    def test_sequential_beats_random(self):
        """The model's essence: n pages in 1 request < n requests of 1."""
        cost = CostModel(pt_ratio=5.0)
        assert cost.request_units(100) < 100 * cost.request_units(1)

    def test_io_seconds_scaling(self):
        cost = CostModel(page_transfer_seconds=0.002)
        assert cost.io_seconds(100) == pytest.approx(0.2)


class TestCpuCost:
    def test_counts_translate_linearly(self):
        cost = CostModel()
        c = CpuCounters(intersection_tests=1000)
        assert cost.cpu_seconds(c) == pytest.approx(1000 * cost.test_op_seconds)

    def test_hilbert_codes_cost_more_than_z(self):
        """Section 4.4.2: the Peano curve is used because its codes are
        cheaper to compute."""
        cost = CostModel()
        c = CpuCounters(code_computations=1000)
        assert cost.cpu_seconds(c, hilbert=True) > cost.cpu_seconds(c, hilbert=False)

    def test_all_op_classes_charged(self):
        cost = CostModel()
        c = CpuCounters(
            intersection_tests=1,
            comparisons=1,
            heap_ops=1,
            structure_ops=1,
            refpoint_tests=1,
            code_computations=1,
        )
        expected = (
            cost.test_op_seconds
            + cost.comparison_op_seconds
            + cost.heap_op_seconds
            + cost.structure_op_seconds
            + cost.refpoint_op_seconds
            + cost.zcode_op_seconds
        )
        assert cost.cpu_seconds(c) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "name",
        [
            f.name
            for f in dataclasses.fields(CpuCounters)
            # Result tallies, not operations: never priced by design.
            if f.name not in ("results_reported", "duplicates_suppressed")
        ],
    )
    def test_every_operation_counter_is_priced_and_estimable(self, name):
        """A counter the model does not price under-prices every join in
        the simulator; one the planner cannot pass in, in EXPLAIN."""
        cost = CostModel()
        assert cost.cpu_seconds(CpuCounters(**{name: 1})) > 0
        assert name in inspect.signature(cost.cpu_seconds_from_counts).parameters


class TestHelpers:
    def test_mb(self):
        assert mb(1) == 1024 * 1024
        assert mb(2.5) == int(2.5 * 1024 * 1024)

    def test_model_is_frozen(self):
        cost = CostModel()
        with pytest.raises(AttributeError):
            cost.pt_ratio = 9.0
