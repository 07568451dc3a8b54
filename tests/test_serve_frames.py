"""The served result path: page frames, request validation, failed joins.

A served join's result travels from the engine to the socket as the two
int64 buffers it holds once (a PBSM plan's row positions, another
method's oids), and the
request says which page frame its sender reads: JSON
lines (the default — raw-socket clients, ``nc``, the benchmark's
first-page probe) or the binary frame ``ServeClient`` asks for.  Pinned
here: both frames carry ``result.pairs`` in its order; the JSON lines are
byte for byte what ``paginate`` + ``encode_message`` produce; the server
never builds ``result.pairs`` and a hot answer traces at most twice the
result's oid bytes; a request no server could honour and a
join that fails are typed error responses on a connection that stays
usable; and the client trusts no frame header.  Everything but the
forced parallel plans runs without numpy too.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import spatial_join
from repro.core.result import PairRows, pair_columns
from repro.internal import brute_force_pairs
from repro.obs.trace import Tracer
from repro.serve import DatasetRegistry, EngineHost, JoinServer, ServeClient, result_checksum
from repro.pbsm.parallel import _warm_worker
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    MAX_PAGE_SIZE,
    PAIR_STRUCT,
    ProtocolError,
    decode_message,
    encode_message,
    encode_pages,
    join_options,
    paginate,
)

from .conftest import random_kpes
from .test_serve import (
    LEFT,
    MEMORY,
    RIGHT,
    _started_server,
    expected_checksum,
    host_pool,
    make_registry,
    needs_shm,
    run,
    struct_loop_checksum,
)

EXPECTED = spatial_join(LEFT, RIGHT, MEMORY, method="pbsm")

#: Every wait on a peer in this file is bounded.
TIMEOUT = 20.0


class RecordingEngine(EngineHost):
    """An engine host that keeps the results it handed to the server."""

    def __init__(self, workers=1):
        super().__init__(MEMORY, workers=workers)
        self.results = []

    def execute(self, *args, **kwargs):
        result = super().execute(*args, **kwargs)
        self.results.append(result)
        return result


async def raw_join(port, **fields):
    """A ``join`` over a bare socket: every ``(line, body)`` it is answered
    with (*body* is empty for a JSON line), the summary or error last."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=MAX_LINE_BYTES)
    try:
        writer.write(encode_message({"op": "join", "left": "L", "right": "R", **fields}))
        await writer.drain()
        frames = []
        while True:
            line = await asyncio.wait_for(reader.readline(), TIMEOUT)
            header = decode_message(line)
            body = b""
            if "bytes" in header:
                body = await asyncio.wait_for(reader.readexactly(header["bytes"]), TIMEOUT)
            frames.append((line, body))
            if not header.get("ok") or header.get("done"):
                return frames
    finally:
        writer.close()
        await writer.wait_closed()


# ----------------------------------------------------------------------
# the page encoder
# ----------------------------------------------------------------------
class TestEncodePages:
    PAIRS = [(5, 1), (-2, 2**40), (5, 1), (7, -(2**63)), (0, 2**63 - 1)]

    @pytest.mark.parametrize("page_size", [1, 2, 5, 9])
    def test_json_pages_are_paginate_plus_encode_message(self, page_size):
        rows = PairRows.of_oids(*pair_columns(self.PAIRS))
        frames = [b"".join(f) for f in encode_pages(rows, page_size, "json", 7)]
        assert frames == [
            encode_message({"ok": True, "query_id": 7, "page": index, "pairs": page})
            for index, page in enumerate(paginate(self.PAIRS, page_size))
        ]

    @pytest.mark.parametrize("page_size", [1, 2, 5, 9])
    def test_binary_pages_are_a_header_line_and_packed_pairs(self, page_size):
        frames = list(encode_pages(PairRows.of_oids(*pair_columns(self.PAIRS)), page_size, "i8", 7))
        decoded = []
        for index, (line, body) in enumerate(frames):
            assert line.endswith(b"\n")
            n = min(page_size, len(self.PAIRS) - index * page_size)
            assert decode_message(line) == {
                "ok": True, "query_id": 7, "page": index, "n": n, "bytes": 16 * n,
            }  # fmt: skip
            assert len(body) == 16 * n
            decoded.extend(PAIR_STRUCT.iter_unpack(body))
        assert decoded == self.PAIRS
        # A fresh table a page: a queued page is never overwritten.
        assert len({id(body.obj) for _, body in frames}) == len(frames)

    @pytest.mark.parametrize("pairs_format", ["json", "i8"])
    def test_empty_result_is_no_pages(self, pairs_format):
        assert list(encode_pages(PairRows.of_oids(*pair_columns([])), 4, pairs_format, 1)) == []


# ----------------------------------------------------------------------
# one query, three readings: binary frame, JSON frame, result.pairs
# ----------------------------------------------------------------------
class TestFramesOverTheWire:
    @pytest.mark.parametrize("page_size", [1, 7, 20_000, len(EXPECTED.pairs) + 1])
    def test_both_frames_carry_the_result_in_its_order(self, page_size):
        engine = RecordingEngine()

        async def scenario():
            server = await _started_server(engine=engine)
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    summary, binary = await client.join(
                        "L", "R", include_pairs=True, page_size=page_size
                    )
                as_json = await raw_join(server.port, include_pairs=True, page_size=page_size)
                as_i8 = await raw_join(
                    server.port, include_pairs=True, page_size=page_size, pairs_format="i8"
                )
            finally:
                await server.stop()
            return summary, binary, as_json, as_i8

        summary, binary, as_json, as_i8 = run(scenario())
        served = engine.results[0].pairs  # the same plan, hence order, three times
        assert served == engine.results[1].pairs == engine.results[2].pairs
        assert binary == served and sorted(served) == sorted(EXPECTED.pairs)
        assert all(type(pair) is tuple for pair in binary[:3])
        assert summary["done"] and summary["checksum"] == expected_checksum()
        n_pages = -(-len(binary) // page_size)
        assert len(as_json) == len(as_i8) == n_pages + 1
        # A request that does not name a format is answered as before
        # this frame existed, byte for byte.
        assert [line for line, _ in as_json[:-1]] == [
            encode_message(
                {"ok": True, "query_id": summary["query_id"] + 1, "page": i, "pairs": page}
            )
            for i, page in enumerate(paginate(served, page_size))
        ]
        assert all(body == b"" for _, body in as_json)
        unpacked = [
            pair for _, body in as_i8[:-1] for pair in PAIR_STRUCT.iter_unpack(body)
        ]
        assert unpacked == served
        assert decode_message(as_i8[-1][0])["checksum"] == summary["checksum"]

    def test_empty_result_is_zero_pages_and_a_summary(self):
        far = random_kpes(20, seed=3, start_oid=500)
        far = [(oid, xl + 10.0, yl, xh + 10.0, yh) for oid, xl, yl, xh, yh in far]

        async def scenario():
            registry = DatasetRegistry()
            registry.register("L", LEFT)
            registry.register("R", far)
            server = await _started_server(registry=registry)
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    summary, pairs = await client.join("L", "R", include_pairs=True)
                raw = await raw_join(server.port, include_pairs=True, pairs_format="i8")
            finally:
                await server.stop()
            return summary, pairs, raw

        summary, pairs, raw = run(scenario())
        assert pairs == [] and summary["done"] and summary["n_results"] == 0
        assert summary["checksum"] == result_checksum([])
        assert len(raw) == 1 and decode_message(raw[0][0])["done"]


# ----------------------------------------------------------------------
# one form on the served path: row positions held once, never tuples
# ----------------------------------------------------------------------
class ForcedPlanEngine(RecordingEngine):
    """A recording host that runs the parallel ``sweep_numpy`` candidate,
    whatever the planner would have chosen."""

    def __init__(self):
        super().__init__(workers=2)

    def plan(self, *args, **kwargs):
        plan = super().plan(*args, **kwargs)
        plan.chosen = next(
            c
            for c in plan.candidates
            if c.method == "pbsm"
            and c.kwargs.get("workers") == 2
            and c.kwargs["internal"] == "sweep_numpy"
        )
        return plan


@needs_shm
class TestServedResultStaysBuffers:
    def test_no_pair_list_with_or_without_include_pairs(
        self, own_shm_segments, pair_decodes, no_oid_unboxing
    ):
        engine = ForcedPlanEngine()

        async def scenario():
            server = await _started_server(engine=engine)
            try:
                if host_pool(engine) is None:
                    pytest.skip("worker cap forced workers=1 on this box")
                async with await ServeClient.connect(port=server.port) as client:
                    hot, _ = await client.join("L", "R")
                    streamed, pairs = await client.join(
                        "L", "R", include_pairs=True, page_size=50
                    )
                as_json = await raw_join(server.port, include_pairs=True, page_size=50)
            finally:
                await server.stop()
            return hot, streamed, pairs, as_json

        hot, streamed, pairs, as_json = run(scenario())
        assert len(engine.results) == 3
        assert all(r.stats.executor == "process" for r in engine.results)
        # Checksummed, paginated in both frames, summarised — and no
        # tuple was ever built server-side: each result reads its row
        # positions through the inputs' oid columns (``no_oid_unboxing``).
        assert all(
            [len(column) for column in r.pairs.columns] == [len(LEFT), len(RIGHT)]
            for r in engine.results
        )
        assert pair_decodes == []
        assert hot["checksum"] == streamed["checksum"] == expected_checksum()
        assert hot["n_results"] == len(pairs) == len(EXPECTED.pairs)
        assert pairs == engine.results[1].pairs  # the merge order, on the wire
        assert sorted(pairs) == sorted(EXPECTED.pairs)
        json_pairs = [
            tuple(pair) for line, _ in as_json[:-1] for pair in decode_message(line)["pairs"]
        ]
        assert json_pairs == pairs
        assert own_shm_segments() == set()


    def test_a_hot_querys_trace_has_one_collect_and_one_checksum_span(self):
        engine = ForcedPlanEngine()

        async def scenario():
            server = await _started_server(engine=engine)
            try:
                if host_pool(engine) is None:
                    pytest.skip("worker cap forced workers=1 on this box")
                async with await ServeClient.connect(port=server.port) as client:
                    await client.join("L", "R")
                    hot, _ = await client.join("L", "R")
                    trace = await client.trace(hot["query_id"])
            finally:
                await server.stop()
            return hot, trace

        hot, trace = run(scenario())
        assert hot["from_cache"] and trace["ok"]
        names = [span["name"] for span in trace["spans"]]
        assert names.count("collect") == 1 and names.count("checksum") == 1, names
        by_id = {span["span_id"]: span for span in trace["spans"]}
        (collect,) = [span for span in trace["spans"] if span["name"] == "collect"]
        assert by_id[collect["parent_id"]]["name"] == "join"  # the copy-out is the parent's

    def test_a_hot_answer_traces_at_most_twice_the_results_oid_bytes(self, own_shm_segments):
        """The result is held once, as the row positions the workers'
        result segments were copied into, and the checksum gathers its
        oids a chunk at a time.  A copy per task, a concatenation, a
        whole-result oid copy and a whole-result sort table put this at
        4x."""
        registry = DatasetRegistry()
        registry.register_synthetic("L", "uniform", 20_000, seed=41)
        registry.register_synthetic("R", "uniform", 20_000, seed=42, start_oid=10**6)
        engine = ForcedPlanEngine()
        server = JoinServer(registry, engine)
        try:
            engine.start()
            if host_pool(engine) is None:
                pytest.skip("worker cap forced workers=1 on this box")
            left, right = registry.get("L"), registry.get("R")
            server._answer(left, right, MEMORY, Tracer())  # plan and partition once
            tracemalloc.start()
            try:
                _, stats, pairs, checksum = server._answer(left, right, MEMORY, Tracer())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert stats.executor == "process" and stats.n_results > 100_000
            assert checksum == result_checksum(engine.results[0].pairs)
            assert peak <= 2 * 16 * stats.n_results, peak / (16 * stats.n_results)
        finally:
            engine.shutdown()
            registry.close()
        assert own_shm_segments() == set()


class TestAnotherMethodIsServedAsBuffers:
    def test_an_s3j_plans_pages_and_checksum_equal_brute_force(
        self, monkeypatch, pair_decodes
    ):
        """A plan the planner could choose over PBSM reaches the socket
        the same way: its result is two oid buffers, paged and
        checksummed without a tuple."""
        import repro.serve.engine as engine_module

        plan_join = engine_module.plan_join

        def s3j_plan(*args, **kwargs):
            plan = plan_join(*args, **kwargs)
            plan.chosen = next(c for c in plan.candidates if c.method == "s3j")
            return plan

        monkeypatch.setattr(engine_module, "plan_join", s3j_plan)
        engine = RecordingEngine()

        async def scenario():
            server = await _started_server(engine=engine)
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    summary, pairs = await client.join(
                        "L", "R", include_pairs=True, page_size=50
                    )
                as_json = await raw_join(server.port, include_pairs=True, page_size=50)
            finally:
                await server.stop()
            return summary, pairs, as_json

        summary, pairs, as_json = run(scenario())
        assert pair_decodes == []
        assert [r.stats.algorithm[:4] for r in engine.results] == ["S3J(", "S3J("]
        # Unboxed once into two oid buffers, one row a pair.
        assert all([len(c) for c in r.pairs.columns] == [len(r)] * 2 for r in engine.results)
        truth = sorted(brute_force_pairs(LEFT, RIGHT))
        assert sorted(pairs) == truth and len(pairs) > 50
        assert summary["checksum"] == struct_loop_checksum(truth) == expected_checksum()
        json_pairs = [
            tuple(pair) for line, _ in as_json[:-1] for pair in decode_message(line)["pairs"]
        ]
        assert json_pairs == pairs == list(engine.results[0].pairs)


# ----------------------------------------------------------------------
# a query's engine work is one blocking call, so one worker thread
# ----------------------------------------------------------------------
class ThreadRecordingEngine(EngineHost):
    """An engine host that notes which thread planned and executed."""

    def __init__(self):
        super().__init__(MEMORY, workers=1)
        self.threads = []

    def plan(self, *args, **kwargs):
        self.threads.append(("plan", threading.get_ident()))
        return super().plan(*args, **kwargs)

    def execute(self, *args, **kwargs):
        self.threads.append(("execute", threading.get_ident()))
        return super().execute(*args, **kwargs)


class TestOneThreadPerQuery:
    def test_plan_execute_and_checksum_share_a_thread(self, monkeypatch):
        """Back-to-back hops each raced the thread pool's idle accounting
        and landed on one to three threads: the served benchmark's peak
        RSS then depended on how many malloc arenas held a result."""
        import repro.serve.server as server_module

        engine = ThreadRecordingEngine()

        def recording_checksum(pairs):
            engine.threads.append(("checksum", threading.get_ident()))
            return result_checksum(pairs)

        monkeypatch.setattr(server_module, "result_checksum", recording_checksum)

        async def scenario():
            server = await _started_server(engine=engine)
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    for _ in range(4):
                        summary, _ = await asyncio.wait_for(
                            client.join("L", "R", include_pairs=True), TIMEOUT
                        )
                        assert summary["checksum"] == expected_checksum()
            finally:
                await server.stop()
            return threading.get_ident()

        loop_thread = run(scenario())
        steps = [step for step, _ in engine.threads]
        assert steps == ["plan", "execute", "checksum"] * 4
        for query in range(4):
            idents = {ident for _, ident in engine.threads[3 * query : 3 * query + 3]}
            assert len(idents) == 1 and loop_thread not in idents


# ----------------------------------------------------------------------
# bugfix: a request no server could honour is a bad_request, not a crash
# ----------------------------------------------------------------------
class TestJoinRequestValidation:
    BAD_FIELDS = [
        {"page_size": 0},
        {"page_size": -3},
        {"page_size": "abc"},
        {"page_size": 2.5},
        {"page_size": True},
        {"page_size": MAX_PAGE_SIZE + 1},
        {"memory_mb": "x"},
        {"memory_mb": -1},
        {"memory_mb": 0},
        {"memory_mb": float("nan")},
        {"memory_mb": float("inf")},
        {"memory_mb": True},
        {"pairs_format": "f4"},
        {"pairs_format": 8},
        {"include_pairs": "yes"},
        {"include_pairs": 1},
    ]

    def test_bad_fields_are_refused_before_any_work(self):
        async def scenario():
            server = await _started_server()
            executed = []
            server.engine.plan = lambda *a, **k: executed.append("plan")
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    answers = []
                    for fields in self.BAD_FIELDS:
                        request = {"op": "join", "left": "L", "right": "R", **fields}
                        # include_pairs with page_size 0 used to run the
                        # whole join before it failed.
                        request.setdefault("include_pairs", True)
                        answers.append(
                            await asyncio.wait_for(client.request(request), TIMEOUT)
                        )
                        # ... and the connection is still in step.
                        assert (await asyncio.wait_for(client.ping(), TIMEOUT))["ok"]
                    stats = await client.stats()
                    metrics = await client.metrics_text()
            finally:
                await server.stop()
            return answers, executed, stats, metrics

        answers, executed, stats, metrics = run(scenario())
        assert executed == []
        for fields, answer in zip(self.BAD_FIELDS, answers):
            (field,) = fields
            assert not answer["ok"] and answer["error"] == "bad_request", fields
            assert field in answer["message"], answer
            assert isinstance(answer["query_id"], int)
        assert stats["queries"] == {"ok": 0, "rejected": 0, "error": len(self.BAD_FIELDS)}
        assert stats["admission"]["inflight"] == 0
        assert (
            f'repro_serve_queries_total{{status="error"}} {len(self.BAD_FIELDS)}' in metrics
        )

    @pytest.mark.parametrize("memory_mb", [1e-9, 1e308])
    def test_a_budget_mb_cannot_turn_into_bytes_is_refused(self, memory_mb):
        """Below one byte ``mb()`` gives 0, past float range it overflows."""
        with pytest.raises(ProtocolError, match="memory_mb must be"):
            join_options({"memory_mb": memory_mb}, 100)

    def test_limits_of_the_accepted_range(self):
        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    big, pairs = await client.join(
                        "L", "R", include_pairs=True, page_size=MAX_PAGE_SIZE, memory_mb=1
                    )
                    tiny, _ = await client.join("L", "R", memory_mb=0.5)
            finally:
                await server.stop()
            return big, pairs, tiny

        big, pairs, tiny = run(scenario())
        assert big["done"] and sorted(pairs) == sorted(EXPECTED.pairs)
        assert tiny["done"] and tiny["checksum"] == big["checksum"]


class TestRegisterAndTraceValidation:
    """A malformed ``register`` or ``trace`` is a ``bad_request`` answer,
    never an exception out of the handler that drops the connection."""

    BAD_REGISTERS = [
        {"pattern": "uniform", "n": None},
        {"pattern": "uniform", "n": "100"},
        {"pattern": "uniform", "n": 2.5},
        {"pattern": "uniform", "n": True},
        {"pattern": "uniform", "seed": None},
        {"pattern": "uniform", "start_oid": [0]},
        {"records": None},
        {"records": 5},
        {"records": "abc"},
        {"records": [1, 2]},
        # A row is [oid, xl, yl, xh, yh]: five entries, an int64 oid,
        # numeric coordinates, and an MBR the file loaders accept.
        *(
            {"records": [row]}
            for row in (
                [1, 0, 0, 1], [1, 0, 0, 1, 1, 7], [1.5, 0, 0, 1, 1], [True, 0, 0, 1, 1],
                ["1", 0, 0, 1, 1], [2**63, 0, 0, 1, 1], [1, None, 0, 1, 1],
                [1, False, 0, 1, 1], [1, "0", 0, 1, 1], [1, float("nan"), 0, 1, 1],
                [1, 0, 0, float("inf"), 1], [1, 0, 0, 10**400, 1], [1, 2, 0, 1, 1],
                [1, 0, 2, 1, 1],
            )
        ),
    ]
    BAD_TRACES = [None, True, "1", 1.0]

    def test_bad_requests_get_bad_request_on_a_live_connection(self):
        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    _, _ = await client.join("L", "R")  # query 1 has a trace
                    answers = []
                    for fields in self.BAD_REGISTERS:
                        request = {"op": "register", "name": "bad", **fields}
                        answers.append(await asyncio.wait_for(client.request(request), TIMEOUT))
                        assert (await asyncio.wait_for(client.ping(), TIMEOUT))["ok"]
                    for query_id in self.BAD_TRACES:
                        request = {"op": "trace", "query_id": query_id}
                        answers.append(await asyncio.wait_for(client.request(request), TIMEOUT))
                        assert (await asyncio.wait_for(client.ping(), TIMEOUT))["ok"]
                    good = await client.trace(1)
                    registered = await client.request(
                        {"op": "register", "name": "ok", "pattern": "uniform", "n": 50}
                    )
                    datasets = await client.request({"op": "datasets"})
            finally:
                await server.stop()
            return answers, good, registered, datasets

        answers, good, registered, datasets = run(scenario())
        assert len(answers) == len(self.BAD_REGISTERS) + len(self.BAD_TRACES)
        for answer in answers:
            assert not answer["ok"] and answer["error"] == "bad_request", answer
        assert good["query_id"] == 1 and good["spans"]
        assert registered["ok"], registered
        assert "bad" not in {d["name"] for d in datasets["datasets"]}

    def test_a_bad_row_is_named_and_good_rows_register_as_before(self, own_shm_segments):
        good = [[1, 0, 0, 1, 1], [2, 0.5, 0.5, 2.0, 2.0], [-3, -1.5, -1, 0, 0]]
        requests = [("bad", good + [[7, 0, 0, 1, None]]), ("bad", good + [[7, 0, 0, 1]]),
                    ("inline", good), ("inline", good), ("empty", [])]

        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    return [
                        await client.request({"op": "register", "name": name, "records": rows})
                        for name, rows in requests
                    ]
            finally:
                await server.stop()

        *bad, first, again, empty = run(scenario())
        for answer in bad:
            assert answer["error"] == "bad_request" and "record 3 " in answer["message"], answer
        assert first["ok"] and again == first, (first, again)
        assert first["dataset"]["n"] == 3 and first["dataset"]["source"] == "records"
        assert empty["ok"] and empty["dataset"]["n"] == 0, empty


# ----------------------------------------------------------------------
# bugfix: a join that fails is a join_failed response; the server goes on
# ----------------------------------------------------------------------
class TestJoinFailure:
    @pytest.mark.parametrize(
        "failure",
        [RuntimeError("kernel exploded"), BrokenProcessPool("a worker died")],
        ids=lambda exc: type(exc).__name__,
    )
    def test_engine_exception_is_a_typed_error_and_the_next_query_runs(
        self, failure, own_shm_segments
    ):
        async def scenario():
            server = await _started_server()
            real_execute = server.engine.execute

            def failing_execute(*args, **kwargs):
                server.engine.execute = real_execute  # fail once
                raise failure

            server.engine.execute = failing_execute
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    failed, pairs = await asyncio.wait_for(
                        client.join("L", "R", include_pairs=True), TIMEOUT
                    )
                    after, _ = await asyncio.wait_for(client.join("L", "R"), TIMEOUT)
                    stats = await client.stats()
                    metrics = await client.metrics_text()
            finally:
                await server.stop()
            return failed, pairs, after, stats, metrics

        failed, pairs, after, stats, metrics = run(scenario())
        assert pairs == []
        assert not failed["ok"] and failed["error"] == "join_failed"
        assert failed["exception"] == type(failure).__name__
        assert str(failure) in failed["message"]
        assert after["done"] and after["checksum"] == expected_checksum()
        assert after["query_id"] == failed["query_id"] + 1
        assert stats["queries"] == {"ok": 1, "rejected": 0, "error": 1}
        assert stats["admission"]["inflight"] == 0  # the slot was released
        assert 'repro_serve_queries_total{status="error"} 1' in metrics
        assert own_shm_segments() == set()

    @needs_shm
    def test_a_killed_worker_fails_one_query_and_the_pool_is_rebuilt(self, own_shm_segments):
        """A real worker death, not a raised stand-in: the pool it leaves
        behind is broken for good, so the host must replace it."""
        engine = ForcedPlanEngine()

        def kill_an_idle_worker():
            pool = host_pool(engine)
            pids = {
                f.result(TIMEOUT) for f in [pool.submit(_warm_worker, 0.05) for _ in range(2)]
            }
            assert len(pids) == 2
            os.kill(min(pids), signal.SIGKILL)
            # The pool finds out on its own thread; wait until it has, so
            # the failing query cannot start a chunk that is then killed.
            deadline = time.monotonic() + TIMEOUT
            while time.monotonic() < deadline:
                try:
                    pool.submit(_warm_worker, 0.0).result(TIMEOUT)
                except BrokenProcessPool:
                    return pool
                time.sleep(0.01)
            raise AssertionError("the pool never noticed its worker died")

        async def scenario():
            server = await _started_server(engine=engine)
            try:
                if host_pool(engine) is None:
                    pytest.skip("worker cap forced workers=1 on this box")
                async with await ServeClient.connect(port=server.port) as client:
                    dead = kill_an_idle_worker()
                    failed, _ = await asyncio.wait_for(client.join("L", "R"), TIMEOUT)
                    after, _ = await asyncio.wait_for(client.join("L", "R"), TIMEOUT)
                    stats = await client.stats()
                assert host_pool(engine) is not dead
            finally:
                await server.stop()
            return failed, after, stats

        failed, after, stats = run(scenario())
        assert not failed["ok"] and failed["error"] == "join_failed"
        assert failed["exception"] == "BrokenProcessPool"
        assert after["done"] and after["checksum"] == expected_checksum()
        assert [r.stats.executor for r in engine.results] == ["process"]
        assert stats["queries"] == {"ok": 1, "rejected": 0, "error": 1}
        assert stats["admission"]["inflight"] == 0
        assert own_shm_segments() == set()

    def test_checksum_failure_is_answered_too(self, monkeypatch):
        import repro.serve.server as server_module

        def failing_checksum(columns):
            raise MemoryError("no room to sort")

        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    monkeypatch.setattr(server_module, "result_checksum", failing_checksum)
                    failed, _ = await asyncio.wait_for(client.join("L", "R"), TIMEOUT)
                    monkeypatch.undo()
                    after, _ = await asyncio.wait_for(client.join("L", "R"), TIMEOUT)
            finally:
                await server.stop()
            return failed, after

        failed, after = run(scenario())
        assert failed["error"] == "join_failed" and failed["exception"] == "MemoryError"
        assert after["done"] and after["checksum"] == expected_checksum()

    def test_nan_row_behind_a_registered_name(self, own_shm_segments):
        """Registered by records, found when the query is planned: the
        client gets the planner's reason, the next query its result."""
        bad = list(LEFT)
        bad[17] = (bad[17][0], float("nan"), 0.1, 0.2, 0.3)

        async def scenario():
            registry = make_registry()
            registry.register("B", bad)
            server = await _started_server(registry=registry)
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    failed = await asyncio.wait_for(
                        client.request({"op": "join", "left": "B", "right": "R"}), TIMEOUT
                    )
                    after, _ = await asyncio.wait_for(client.join("L", "R"), TIMEOUT)
            finally:
                await server.stop()
            return failed, after

        failed, after = run(scenario())
        assert failed["error"] == "join_failed" and failed["exception"] == "ValueError"
        assert "non-finite coordinate at row 17" in failed["message"]
        assert after["done"] and after["checksum"] == expected_checksum()
        assert own_shm_segments() == set()


# ----------------------------------------------------------------------
# the client trusts no frame header
# ----------------------------------------------------------------------
async def scripted_join(script: bytes, close_after: bool):
    """``ServeClient.join`` against a fake server that answers any request
    with *script* and then closes, or holds the connection open."""
    release = asyncio.Event()

    async def handle(reader, writer):
        await reader.readline()
        writer.write(script)
        await writer.drain()
        if not close_after:
            await release.wait()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        async with await ServeClient.connect(port=port) as client:
            return await asyncio.wait_for(client.join("L", "R", include_pairs=True), TIMEOUT)
    finally:
        release.set()
        server.close()
        await server.wait_closed()


def page_header(**fields) -> bytes:
    return encode_message({"ok": True, "query_id": 1, "page": 0, **fields})


SUMMARY = encode_message({"ok": True, "done": True, "query_id": 1, "n_results": 2})


class TestClientFrameValidation:
    def test_well_formed_binary_and_json_pages_mix(self):
        script = (
            page_header(n=2, bytes=32)
            + PAIR_STRUCT.pack(1, 2)
            + PAIR_STRUCT.pack(-3, 2**62)
            + page_header(n=0, bytes=0)
            + page_header(pairs=[[5, 6]])
            + SUMMARY
        )
        summary, pairs = run(scripted_join(script, close_after=True))
        assert summary["done"] and pairs == [(1, 2), (-3, 2**62), (5, 6)]

    @pytest.mark.parametrize(
        "fields",
        [
            {"n": 2, "bytes": 31},
            {"n": 2, "bytes": 48},
            {"n": -1, "bytes": -16},
            {"n": 2, "bytes": "32"},
            {"n": "2", "bytes": 32},
            {"n": 2.0, "bytes": 32},
            {"n": True, "bytes": 16},
            {"bytes": 32},
            {"n": None, "bytes": 0},
            {"n": MAX_LINE_BYTES // 16 + 1, "bytes": MAX_LINE_BYTES + 16},
        ],
        ids=lambda fields: ",".join(f"{k}={v!r}" for k, v in fields.items()),
    )
    def test_bad_header_is_rejected_before_any_body_is_awaited(self, fields):
        # The fake server never sends a body and keeps the connection
        # open: a client that trusted the header would wait out TIMEOUT.
        with pytest.raises(ProtocolError, match="bad binary page header"):
            run(scripted_join(page_header(**fields), close_after=False))

    def test_body_cut_short_is_a_connection_error(self):
        script = page_header(n=4, bytes=64) + b"\x00" * 10
        with pytest.raises(ConnectionError, match="closed the connection"):
            run(scripted_join(script, close_after=True))

    def test_stream_closed_between_pages_is_a_connection_error(self):
        script = page_header(n=1, bytes=16) + PAIR_STRUCT.pack(1, 2)
        with pytest.raises(ConnectionError, match="closed the connection"):
            run(scripted_join(script, close_after=True))


class TestClientGoesAwayMidStream:
    def test_server_survives_a_disconnect_after_the_first_binary_page(self):
        engine = RecordingEngine()

        async def scenario():
            server = await _started_server(engine=engine)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port, limit=MAX_LINE_BYTES
                )
                writer.write(
                    encode_message(
                        {
                            "op": "join", "left": "L", "right": "R", "include_pairs": True,
                            "page_size": 1, "pairs_format": "i8",
                        }  # fmt: skip
                    )
                )
                await writer.drain()
                header = decode_message(await asyncio.wait_for(reader.readline(), TIMEOUT))
                first = await asyncio.wait_for(reader.readexactly(header["bytes"]), TIMEOUT)
                writer.transport.abort()  # hundreds of pages still to come
                async with await ServeClient.connect(port=server.port) as client:
                    assert (await asyncio.wait_for(client.ping(), TIMEOUT))["ok"]
                    summary, pairs = await asyncio.wait_for(
                        client.join("L", "R", include_pairs=True), TIMEOUT
                    )
                    stats = await client.stats()
            finally:
                await server.stop()
            return header, first, summary, pairs, stats

        header, first, summary, pairs, stats = run(scenario())
        assert (header["n"], header["bytes"]) == (1, 16)
        assert PAIR_STRUCT.unpack(first) == engine.results[0].pairs[0]
        assert summary["done"] and pairs == engine.results[1].pairs
        assert stats["admission"]["inflight"] == 0
