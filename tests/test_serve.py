"""Tests for the always-on join service (`repro serve`).

Everything here runs in-process: a real `JoinServer` on an ephemeral
port, spoken to by the real `ServeClient`.  The default configuration
(`workers=1`, datasets registered from inline records) needs no
platform shared memory; pinning and the persistent-pool execution path
are exercised by the `needs_shm`-gated tests at the bottom.
"""

from __future__ import annotations

import asyncio
import struct
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import spatial_join
from repro.core.result import pair_columns
from repro.kernels.shm import shm_enabled, sweep_orphan_segments
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    AdmissionController,
    AdmissionReject,
    DatasetRegistry,
    EngineHost,
    JoinServer,
    ServeClient,
    result_checksum,
)
import repro.serve.protocol as protocol_module
from repro.serve.protocol import (
    ProtocolError,
    _sorted_table,
    decode_message,
    encode_message,
    paginate,
)

from .conftest import random_kpes

needs_shm = pytest.mark.skipif(
    not shm_enabled(), reason="needs platform shared memory"
)

MEMORY = 1 << 20  # 1 MiB: forces real partitioning on the test relations

LEFT = random_kpes(300, seed=31, max_edge=0.05)
RIGHT = random_kpes(300, seed=32, start_oid=10_000, max_edge=0.05)


def run(coro):
    return asyncio.run(coro)


def make_registry() -> DatasetRegistry:
    registry = DatasetRegistry()
    registry.register("L", LEFT)
    registry.register("R", RIGHT)
    return registry


async def _started_server(**kwargs) -> JoinServer:
    registry = kwargs.pop("registry", None) or make_registry()
    engine = kwargs.pop("engine", None) or EngineHost(MEMORY, workers=1)
    admission = kwargs.pop("admission", None)
    server = JoinServer(registry, engine, admission, port=0, **kwargs)
    await server.start()
    return server


def expected_checksum() -> str:
    return result_checksum(spatial_join(LEFT, RIGHT, MEMORY, method="pbsm").pairs)


def struct_loop_checksum(pairs) -> str:
    """The checksum contract written out: the reference of every path."""
    import hashlib

    digest = hashlib.sha256()
    for pair in sorted(pairs):
        digest.update(struct.pack("<qq", *pair))
    return digest.hexdigest()


class CountingNumpy:
    """numpy, counting ``lexsort`` calls and noting the names looked up:
    which sort, over which key type, a checksum took."""

    def __init__(self, np):
        self._np = np
        self.lexsorts = 0
        self.names = set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self._np, name)

    def lexsort(self, keys):
        self.lexsorts += 1
        return self._np.lexsort(keys)


#: Oids from narrow ranges (ties, duplicates, packable spans), from ranges
#: whose spans multiply to about 2**63 (both sides of the packed-key
#: limit), and from all of int64 (never packable).
OIDS = st.one_of(
    st.integers(-3, 3),
    st.integers(10**6, 10**6 + 50),
    st.sampled_from([0, 1, 2**31 - 2, 2**31 - 1, 2**32 - 2, 2**32 - 1]),
    st.integers(-(2**63), 2**63 - 1),
)

#: Oid spans at and around the packed key's two widths: the largest key
#: stays below 2**32 (uint32) or 2**63 (int64) or it does not (lexsort).
SPANS = st.sampled_from([
    1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1,
    2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64,
])  # fmt: skip


@st.composite
def packable_pairs(draw):
    """0 to 12 pairs whose sides span a drawn ``SPANS`` range each, ends
    included, any sign, plus repeats of some of them."""
    n = draw(st.integers(0, 12))
    sides = []
    for _ in range(2):
        span = draw(SPANS)
        low = draw(st.integers(-(2**63), 2**63 - span))
        high = low + span - 1
        oid = st.one_of(st.sampled_from([low, high]), st.integers(low, high))
        sides.append(draw(st.lists(oid, min_size=n, max_size=n)))
    pairs = list(zip(*sides))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    return pairs


# ----------------------------------------------------------------------
# protocol primitives
# ----------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "join", "left": "L", "n": 3, "nested": {"a": [1, 2]}}
        line = encode_message(message)
        assert line.endswith(b"\n")
        assert decode_message(line) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{not json}\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")

    def test_checksum_is_order_insensitive(self):
        pairs = [(3, 4), (1, 2), (5, 6)]
        assert result_checksum(pairs) == result_checksum(list(reversed(pairs)))
        assert result_checksum(pairs) != result_checksum(pairs[:2])

    def test_checksum_columnar_digest_equals_the_struct_loop(self):
        """The packed buffer hashes the same bytes as a per-pair loop."""
        import random

        rng = random.Random(7)
        cases = {
            "empty": [],
            "single": [(7, 9)],
            "ties_on_left_oid": [(5, rng.randrange(100)) for _ in range(50)],
            "negative_and_wide": [
                (-1, 2**62), (2**62, -(2**62)), (0, 0), (-(2**63), 2**63 - 1),
            ],
            "random": [
                (rng.randrange(5000), rng.randrange(10**6, 10**6 + 5000))
                for _ in range(3000)
            ],
        }
        for name, pairs in cases.items():
            reference = struct_loop_checksum(pairs)
            assert result_checksum(pairs) == reference, name
            assert result_checksum(iter(pairs)) == reference, name
            assert result_checksum([list(p) for p in pairs]) == reference, name
            assert result_checksum(pair_columns(pairs)) == reference, name

    @given(pairs=st.lists(st.tuples(OIDS, OIDS), max_size=40))
    def test_checksum_of_arrays_equals_the_struct_loop(self, pairs):
        reference = struct_loop_checksum(pairs)
        assert result_checksum(pair_columns(pairs)) == reference
        assert result_checksum(pairs) == reference
        assert result_checksum(pair_columns(pairs[::-1])) == reference

    def test_two_pairs_are_pairs_and_two_buffers_are_columns(self):
        pairs = ((1, 2), (3, 4))
        assert result_checksum(pairs) == struct_loop_checksum(pairs)
        columns = pair_columns(pairs)  # ([1, 3], [2, 4]): two buffers, not two pairs
        assert result_checksum(columns) == struct_loop_checksum(pairs)
        as_pairs = [tuple(column.tolist()) for column in columns]
        assert result_checksum(as_pairs) == struct_loop_checksum([(1, 3), (2, 4)])

    def test_packed_key_sort_up_to_the_int64_limit_and_lexsort_beyond(self, monkeypatch):
        """A pair packs into ``(l - l_min) << bits | (r - r_min)``: uint32
        keys when the largest stays below ``2**32``, int64 below ``2**63``,
        ``lexsort`` beyond; the digest is the struct loop's on every side
        of both limits."""
        for span_l, span_r, keys in [
            (2**16, 2**16, "uint32"),  # largest key 2**32 - 1
            (2**16 + 1, 2**16, "int64"),  # 2**32: past uint32
            (2**16, 2**16 + 1, "int64"),  # 17 bits for the right span
            (1, 2**32, "uint32"),
            (2, 2**32, "int64"),
            (2**32, 2**31, "int64"),  # largest key 2**63 - 1
            (2**32 + 1, 2**31, "lexsort"),  # 2**63: the key could overflow
            (2**32, 2**31 + 1, "lexsort"),  # 32 bits for the right span
            (1, 2**63 - 1, "int64"),
            (1, 2**64, "lexsort"),  # all of int64 on one side
            (2**64, 2**64, "lexsort"),
        ]:
            for l_min, r_min in [(0, 0), (-(2**63), -(2**63)), (-7, 10**6)]:
                l_max = min(l_min + span_l - 1, 2**63 - 1)
                r_max = min(r_min + span_r - 1, 2**63 - 1)
                if (l_max - l_min + 1, r_max - r_min + 1) != (span_l, span_r):
                    continue  # this span does not fit int64 from this minimum
                pairs = [
                    (l_max, r_min), (l_min, r_max), (l_max, r_max), (l_min, r_min),
                    (l_max, r_max), (l_min + span_l // 2, r_min + span_r // 2),
                ]  # fmt: skip
                counting = CountingNumpy(np)
                with monkeypatch.context() as patched:
                    patched.setattr(protocol_module, "np", counting)
                    table = _sorted_table(*pair_columns(pairs))
                took = {"uint32", "int64"} & counting.names
                took |= {"lexsort"} if counting.lexsorts else set()
                assert took == {keys}, (span_l, span_r, took)
                assert table.tolist() == [list(p) for p in sorted(pairs)]
                assert result_checksum(pair_columns(pairs)) == struct_loop_checksum(pairs)

    @given(pairs=packable_pairs())
    def test_sorted_table_equals_the_lexsort_reference(self, pairs):
        left, right = pair_columns(pairs)
        order = np.lexsort((right, left))
        expected = np.stack([left[order], right[order]], axis=1).reshape(-1, 2)
        table = _sorted_table(left, right)
        assert table.dtype == "<i8" and table.tolist() == expected.tolist()

    def test_paginate_covers_everything_in_order(self):
        pairs = [(i, i + 1) for i in range(10)]
        pages = list(paginate(pairs, 4))
        assert [len(p) for p in pages] == [4, 4, 2]
        assert [tuple(row) for page in pages for row in page] == pairs

    def test_paginate_empty_result_is_no_pages(self):
        assert list(paginate([], 4)) == []


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_capacity_reject_when_full_and_queue_exhausted(self):
        async def scenario():
            ctrl = AdmissionController(max_inflight=1, max_queue=0)
            async with ctrl.slot():
                assert ctrl.inflight == 1
                with pytest.raises(AdmissionReject) as err:
                    async with ctrl.slot():
                        pass
                assert err.value.reason == "capacity"
            assert ctrl.inflight == 0

        run(scenario())

    def test_queue_admits_after_release(self):
        async def scenario():
            ctrl = AdmissionController(max_inflight=1, max_queue=1)
            order = []

            async def holder():
                async with ctrl.slot():
                    order.append("first")
                    await asyncio.sleep(0.05)

            async def waiter():
                await asyncio.sleep(0.01)  # let the holder win the slot
                async with ctrl.slot():
                    order.append("second")

            await asyncio.gather(holder(), waiter())
            assert order == ["first", "second"]

        run(scenario())

    def test_budget_reject(self):
        ctrl = AdmissionController(budget_seconds=0.5)
        ctrl.check_budget(0.4)  # under budget: fine
        with pytest.raises(AdmissionReject) as err:
            ctrl.check_budget(0.6)
        assert err.value.reason == "budget"

    def test_no_budget_means_no_budget_rejects(self):
        AdmissionController().check_budget(1e9)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)
        for budget in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="budget_seconds"):
                AdmissionController(budget_seconds=budget)

    def test_on_change_keeps_gauges_current(self):
        seen = []

        async def scenario():
            ctrl = AdmissionController(max_inflight=1)
            ctrl.on_change = lambda c: seen.append((c.inflight, c.queue_depth))
            async with ctrl.slot():
                pass

        run(scenario())
        assert (1, 0) in seen  # while held
        assert seen[-1] == (0, 0)  # after release


# ----------------------------------------------------------------------
# dataset registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_and_lookup(self):
        registry = DatasetRegistry()
        entry = registry.register("L", LEFT)
        assert entry.n == len(LEFT)
        assert registry.get("L") is entry
        assert "L" in registry and "nope" not in registry
        assert registry.names() == ["L"]
        registry.close()

    def test_reregister_same_source_is_idempotent(self):
        registry = DatasetRegistry()
        first = registry.register("L", LEFT)
        again = registry.register("L", LEFT)
        assert again is first
        registry.close()

    def test_reregister_different_source_conflicts(self):
        registry = DatasetRegistry()
        registry.register("L", LEFT, source="records")
        with pytest.raises(ValueError):
            registry.register("L", LEFT, source="file:other.csv")
        registry.close()

    def test_a_racing_register_from_another_source_conflicts(self, monkeypatch):
        """The name is taken between the registry's two lock sections (while
        the columns are built and pinned): the loser must not be handed the
        winner's data."""
        import repro.serve.registry as registry_module

        registry = DatasetRegistry()
        real = registry_module.shm_enabled
        steps = []

        def racing_step():
            steps.append(None)
            if len(steps) == 1:
                registry.register("L", RIGHT, source="file:other.csv")
            return real()

        monkeypatch.setattr(registry_module, "shm_enabled", racing_step)
        try:
            with pytest.raises(ValueError, match="already registered from 'file:other.csv'"):
                registry.register("L", LEFT, source="records")
            assert registry.get("L").source == "file:other.csv"
            assert registry.get("L").n == len(RIGHT)
        finally:
            registry.close()

    def test_a_racing_register_from_the_same_source_returns_the_winner(
        self, monkeypatch
    ):
        import repro.serve.registry as registry_module

        registry = DatasetRegistry()
        real = registry_module.shm_enabled
        steps, winners = [], []

        def racing_step():
            steps.append(None)
            if len(steps) == 1:
                winners.append(registry.register("L", LEFT))
            return real()

        monkeypatch.setattr(registry_module, "shm_enabled", racing_step)
        try:
            assert registry.register("L", LEFT) is winners[0]
        finally:
            registry.close()

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            DatasetRegistry().get("missing")

    def test_the_service_runs_without_the_cli(self):
        """``repro.serve`` registers a synthetic dataset without importing
        ``repro.cli`` (argparse and every paper engine)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "import repro.serve\n"
            "registry = repro.serve.DatasetRegistry()\n"
            "registry.register_synthetic('u', 'uniform', 200)\n"
            "registry.close()\n"
            "print('repro.cli' in sys.modules)\n"
        )
        root = Path(__file__).resolve().parents[1]
        ran = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert ran.returncode == 0, ran.stderr
        assert ran.stdout.split() == ["False"]

    def test_pinning_follows_platform_support(self):
        registry = DatasetRegistry()
        entry = registry.register("L", LEFT)
        assert entry.pinned == shm_enabled()
        describe = entry.describe()
        assert describe["pinned"] == entry.pinned
        # The relation names its segment while pinned.
        assert (entry.kpes.segment is not None) == entry.pinned
        if entry.pinned:
            assert entry.kpes.segment == (entry.store.manifest, "D")
        registry.close()
        assert not entry.pinned  # close() unlinks and clears the pin
        assert entry.kpes.segment is None

    def test_records_are_kept_as_frozen_columns_with_their_oids(self):
        from repro.kernels.columnar import ColumnarRelation

        registry = DatasetRegistry()
        try:
            entry = registry.register("L", LEFT)
            assert type(entry.kpes) is ColumnarRelation and entry.kpes.read_only
            assert entry.kpes.oid_objects.tolist() == [k[0] for k in LEFT]
            assert entry.kpes.to_kpes() == [tuple(k) for k in LEFT]
        finally:
            registry.close()

    def test_records_are_fingerprinted_once_at_registration(self, monkeypatch):
        """The plan caches' content key is stamped on the frozen columns:
        a served query after the first samples no record for it."""
        from repro.kernels.columnar import ColumnarRelation
        from repro.planner.stats import relation_fingerprint

        registry = make_registry()
        engine = EngineHost(MEMORY, workers=1)
        try:
            left, right = registry.get("L"), registry.get("R")
            assert left.kpes.fingerprint == relation_fingerprint(LEFT)
            assert right.kpes.fingerprint == relation_fingerprint(RIGHT)
            engine.execute(engine.plan(left, right), left, right)
            sampled = []
            getitem = ColumnarRelation.__getitem__

            def counting(relation, index):
                if not isinstance(index, slice):
                    sampled.append(index)
                return getitem(relation, index)

            monkeypatch.setattr(ColumnarRelation, "__getitem__", counting)
            plan = engine.plan(left, right)
            assert plan.from_cache
            engine.execute(plan, left, right)
            assert sampled == []
        finally:
            registry.close()

    def test_pin_disabled_registry_never_pins(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        registry = DatasetRegistry()
        entry = registry.register("L", LEFT)
        assert not entry.pinned
        registry.close()

    def test_close_is_idempotent(self):
        registry = DatasetRegistry()
        registry.register("L", LEFT)
        registry.close()
        registry.close()


# ----------------------------------------------------------------------
# the engine host
# ----------------------------------------------------------------------
class TestEngineHost:
    @pytest.mark.skipif(not shm_enabled(), reason="needs platform shared memory")
    def test_a_query_over_pinned_datasets_ships_only_the_id_arrays(
        self, monkeypatch
    ):
        """Each side's relation names its pinned segment, so the query's
        own segment holds the id runs only; a side that names none ships
        its columns as well."""
        from repro.kernels.shm import SharedColumnarStore
        from repro.pbsm import PBSM

        registry = make_registry()
        real = SharedColumnarStore.create.__func__
        created = []

        def recording(cls, arrays, *args, **kwargs):
            created.append(sorted(arrays))
            return real(cls, arrays, *args, **kwargs)

        try:
            left, right = registry.get("L").kpes, registry.get("R").kpes
            monkeypatch.setattr(SharedColumnarStore, "create", classmethod(recording))
            driver = PBSM(MEMORY, workers=2, internal="sweep_numpy", executor="process")
            pinned = driver.run(left, right)
            assert pinned.stats.executor == "process"
            assert created[-1] == ["L.ids", "R.ids"]
            half = driver.run(left, RIGHT)
            assert created[-1] == ["L.ids", "R.ids", "R.oid", "R.xh", "R.xl", "R.yh", "R.yl"]
            assert list(half.pairs) == list(pinned.pairs)
        finally:
            registry.close()

    def test_the_pin_is_no_option(self):
        from repro.pbsm import PBSM
        from repro.planner import plan_join

        with pytest.raises(TypeError):
            PBSM(MEMORY, pinned=None)
        plan = plan_join(LEFT, RIGHT, MEMORY)
        with pytest.raises(TypeError):
            plan.execute(LEFT, RIGHT, pinned=None)

    def test_workers_are_clamped_with_the_librarys_warning(self):
        """A served clamp warns once, as ``PBSM``'s does; ``repro serve
        --workers N`` raises the cap to N first, so the CLI never clamps."""
        from repro.pbsm.parallel import reset_clamp_warnings, worker_cap

        reset_clamp_warnings()
        cap = worker_cap()
        with pytest.warns(RuntimeWarning, match="exceeds the usable CPU count"):
            assert EngineHost(MEMORY, workers=cap + 1).workers == cap
        with pytest.warns(RuntimeWarning, match="below 1"):
            assert EngineHost(MEMORY, workers=0).workers == 1


# ----------------------------------------------------------------------
# latency histograms (the serve-facing MetricsRegistry extension)
# ----------------------------------------------------------------------
class TestHistogram:
    def test_observe_quantile_and_count(self):
        metrics = MetricsRegistry()
        metrics.histogram("lat", "latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.05, 0.5, 5.0):
            metrics.observe("lat", value)
        assert metrics.histogram_count("lat") == 4
        # p50 falls in the first bucket, p99 in the last finite one.
        assert metrics.quantile("lat", 0.50) <= 0.1
        assert 1.0 < metrics.quantile("lat", 0.99) <= 10.0

    def test_empty_histogram_quantile_is_zero(self):
        metrics = MetricsRegistry()
        metrics.histogram("lat", "latency")
        assert metrics.quantile("lat", 0.99) == 0.0
        assert metrics.histogram_count("lat") == 0

    def test_render_emits_cumulative_buckets(self):
        metrics = MetricsRegistry()
        metrics.histogram("lat", "latency", buckets=(1.0, 2.0))
        metrics.observe("lat", 0.5)
        metrics.observe("lat", 1.5)
        text = metrics.render()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_sum 2\n" in text
        assert "lat_count 2" in text

    def test_name_collision_with_counter_raises(self):
        metrics = MetricsRegistry()
        metrics.counter("x", "a counter")
        with pytest.raises(ValueError):
            metrics.histogram("x", "same name")
        metrics.histogram("h", "a histogram")
        with pytest.raises(ValueError):
            metrics.counter("h", "same name")


# ----------------------------------------------------------------------
# server lifecycle and the join op
# ----------------------------------------------------------------------
class TestServer:
    def test_lifecycle_and_simple_ops(self):
        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    ping = await client.ping()
                    assert ping["ok"] and ping["workers"] == 1
                    datasets = await client.request({"op": "datasets"})
                    assert [d["name"] for d in datasets["datasets"]] == ["L", "R"]
                    unknown = await client.request({"op": "frobnicate"})
                    assert not unknown["ok"]
                    assert unknown["error"] == "unknown_op"
            finally:
                await server.stop()

        run(scenario())

    def test_protocol_error_keeps_connection_alive(self):
        async def scenario():
            server = await _started_server()
            try:
                client = await ServeClient.connect(port=server.port)
                client._writer.write(b"{broken\n")
                await client._writer.drain()
                response = await client._read_response()
                assert not response["ok"] and response["error"] == "protocol"
                assert (await client.ping())["ok"]  # still usable
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_join_byte_parity_with_sequential_engine(self):
        expected = spatial_join(LEFT, RIGHT, MEMORY, method="pbsm")
        expected_pairs = sorted(expected.pairs)

        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    summary, pairs = await client.join(
                        "L", "R", include_pairs=True, page_size=100
                    )
                    assert summary["ok"] and summary["done"]
                    assert summary["n_results"] == len(expected_pairs)
                    assert sorted(pairs) == expected_pairs
                    assert summary["checksum"] == result_checksum(expected.pairs)
            finally:
                await server.stop()

        run(scenario())

    def test_second_query_is_served_from_plan_cache(self):
        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    first, _ = await client.join("L", "R")
                    second, _ = await client.join("L", "R")
                    assert not first["from_cache"]
                    assert second["from_cache"]
                    assert second["profile_spans"] == 0
                    assert second["checksum"] == first["checksum"]
                    trace = await client.trace(second["query_id"])
                    names = [span["name"] for span in trace["spans"]]
                    assert "profile" not in names
            finally:
                await server.stop()

        run(scenario())

    def test_concurrent_clients_all_get_identical_results(self):
        expected = expected_checksum()

        async def one_client(port: int) -> str:
            async with await ServeClient.connect(port=port) as client:
                summary, _ = await client.join("L", "R")
                assert summary["ok"], summary
                return summary["checksum"]

        async def scenario():
            server = await _started_server(
                admission=AdmissionController(max_inflight=2, max_queue=16)
            )
            try:
                checksums = await asyncio.gather(
                    *(one_client(server.port) for _ in range(6))
                )
                assert checksums == [expected] * 6
            finally:
                await server.stop()

        run(scenario())

    def test_unknown_dataset_is_an_error_response(self):
        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    summary, _ = await client.join("L", "missing")
                    assert not summary["ok"]
                    assert summary["error"] == "unknown_dataset"
            finally:
                await server.stop()

        run(scenario())

    def test_budget_rejection_over_the_wire(self):
        async def scenario():
            server = await _started_server(
                admission=AdmissionController(budget_seconds=0.0)
            )
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    summary, _ = await client.join("L", "R")
                    assert not summary["ok"]
                    assert summary["error"] == "rejected"
                    assert summary["reason"] == "budget"
                    stats = await client.stats()
                    assert stats["admission"]["rejects_budget"] == 1
                    assert stats["queries"]["rejected"] == 1
            finally:
                await server.stop()

        run(scenario())

    def test_capacity_rejection_over_the_wire(self):
        async def scenario():
            server = await _started_server(
                admission=AdmissionController(max_inflight=1, max_queue=0)
            )
            # Make the planning step slow enough that concurrent queries
            # overlap deterministically while the slot is held.
            original_plan = server.engine.plan

            def slow_plan(*args, **kwargs):
                time.sleep(0.25)
                return original_plan(*args, **kwargs)

            server.engine.plan = slow_plan
            try:

                async def one_join():
                    async with await ServeClient.connect(port=server.port) as c:
                        summary, _ = await c.join("L", "R")
                        return summary

                summaries = await asyncio.gather(*(one_join() for _ in range(3)))
                outcomes = sorted(
                    s.get("reason", "ok") if not s.get("ok") else "ok"
                    for s in summaries
                )
                assert outcomes.count("ok") == 1
                assert outcomes.count("capacity") == 2
            finally:
                await server.stop()

        run(scenario())

    def test_metrics_scrape_has_serve_series(self):
        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.join("L", "R")
                    await client.join("L", "R")
                    text = await client.metrics_text()
                    assert 'repro_serve_queries_total{status="ok"} 2' in text
                    assert "repro_serve_query_seconds_bucket" in text
                    assert "repro_serve_query_seconds_count 2" in text
                    assert "repro_serve_queue_depth 0" in text
                    assert "repro_serve_datasets 2" in text
                    stats = await client.stats()
                    assert stats["latency"]["count"] == 2
                    assert stats["latency"]["p99_seconds"] >= 0.0
            finally:
                await server.stop()

        run(scenario())

    def test_shutdown_op_stops_the_serve_loop(self):
        async def scenario():
            server = await _started_server()
            loop_task = asyncio.ensure_future(server.serve_until_stopped())
            async with await ServeClient.connect(port=server.port) as client:
                response = await client.shutdown()
                assert response["ok"] and response["stopping"]
            await asyncio.wait_for(loop_task, timeout=10)

        run(scenario())


# ----------------------------------------------------------------------
# shared-memory integration: pinning, pools, and the orphan sweep
# ----------------------------------------------------------------------
@needs_shm
class TestServeShm:
    def test_registered_datasets_are_pinned_and_unpinned_on_stop(self):
        async def scenario():
            server = await _started_server()
            try:
                described = server.registry.describe()
                assert all(d["pinned"] for d in described)
                segments = [d["segment"] for d in described]
                assert all(seg for seg in segments)
            finally:
                await server.stop()
            assert all(not d["pinned"] for d in server.registry.describe())

        run(scenario())
        assert sweep_orphan_segments(include_live=True) == []

    def test_pool_and_pinned_execution_matches_sequential(self):
        """Force the parallel process candidate through the persistent
        pool + pinned-segment path and demand byte parity."""
        engine = EngineHost(MEMORY, workers=2)
        registry = make_registry()
        try:
            engine.start()
            if engine.pool is None:
                pytest.skip("worker cap forced workers=1 on this box")
            left, right = registry.get("L"), registry.get("R")
            plan = engine.plan(left, right)
            parallel = [
                c
                for c in plan.candidates
                if c.method == "pbsm"
                and "workers" in c.kwargs
                and c.kwargs["executor"] == "process"
            ]
            assert parallel, "planner enumerated no parallel process candidate"
            plan.chosen = parallel[0]
            result = engine.execute(plan, left, right)
            expected = spatial_join(LEFT, RIGHT, MEMORY, method="pbsm")
            assert sorted(result.pairs) == sorted(expected.pairs)
            assert result.stats.executor == "process"
            assert result.stats.ipc_bytes_shipped > 0
        finally:
            engine.shutdown()
            registry.close()
        assert sweep_orphan_segments(include_live=True) == []

    def test_sweep_reaps_segment_of_a_dead_creator(self):
        """A SIGKILLed server's segments embed a dead pid; sweep reaps
        exactly those and leaves live-owner segments alone."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "sys.path.insert(0, 'src')\n"
            "import numpy as np\n"
            "from repro.kernels.shm import SharedColumnarStore\n"
            "store = SharedColumnarStore.create({'x': np.arange(4)}, track=False)\n"
            "print(store.name)\n"
        )
        orphan = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
            check=True,
        ).stdout.strip()
        import os

        assert os.path.exists(f"/dev/shm/{orphan}")
        swept = sweep_orphan_segments()
        assert orphan in swept
        assert not os.path.exists(f"/dev/shm/{orphan}")

    def test_server_stop_leaves_no_segments_behind(self):
        async def scenario():
            server = await _started_server(
                engine=EngineHost(MEMORY, workers=2)
            )
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    summary, _ = await client.join("L", "R")
                    assert summary["ok"]
            finally:
                await server.stop()

        run(scenario())
        assert sweep_orphan_segments(include_live=True) == []
