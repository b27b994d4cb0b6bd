"""Tests for the tracer core: events, spans, context, zero-cost disable."""

import pytest

from repro.obs import CAT_KERNEL, CAT_WORKER, Tracer
from repro.obs.context import TraceContext
from repro.sim import Environment


class Clock:
    """A stand-in environment: just a settable ``now``."""

    def __init__(self, now: float = 0.0):
        self.now = now


class TestTracerBasics:
    def test_instant_records_clock_and_ids(self):
        clock = Clock(1.25)
        tracer = Tracer(env=clock)
        event = tracer.instant("conn.accept", CAT_WORKER, worker=3, conn=17,
                               queue_delay=0.5)
        assert event.ts == 1.25
        assert event.name == "conn.accept"
        assert event.cat == CAT_WORKER
        assert event.phase == "i"
        assert event.worker == 3
        assert event.conn == 17
        assert event.fields == {"queue_delay": 0.5}
        assert tracer.events == [event]

    def test_sequence_numbers_are_monotone(self):
        tracer = Tracer(env=Clock())
        seqs = [tracer.instant("x").seq for _ in range(5)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_unbound_tracer_stamps_zero_then_binds(self):
        tracer = Tracer()
        assert tracer.instant("early").ts == 0.0
        clock = Clock(2.0)
        tracer.bind(clock)
        assert tracer.instant("late").ts == 2.0

    def test_bind_accepts_real_environment(self):
        env = Environment()
        tracer = Tracer().bind(env)
        assert tracer.now == env.now

    def test_span_emits_begin_end_pair(self):
        clock = Clock(1.0)
        tracer = Tracer(env=clock)
        with tracer.span("sched.decision", "sched", worker=2):
            clock.now = 1.5
        begin, end = tracer.events
        assert (begin.phase, end.phase) == ("B", "E")
        assert begin.name == end.name == "sched.decision"
        assert begin.worker == end.worker == 2
        assert (begin.ts, end.ts) == (1.0, 1.5)

    def test_span_closes_on_exception(self):
        tracer = Tracer(env=Clock())
        try:
            with tracer.span("x"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert [e.phase for e in tracer.events] == ["B", "E"]


class TestDisabledTracer:
    def test_disabled_emits_nothing(self):
        tracer = Tracer(env=Clock(), enabled=False)
        assert tracer.instant("x") is None
        assert tracer.begin("y") is None
        assert tracer.end("y") is None
        assert tracer.events == []
        assert tracer.dropped == 3

    def test_enable_disable_toggle(self):
        tracer = Tracer(env=Clock())
        tracer.disable()
        tracer.instant("dropped")
        tracer.enable()
        tracer.instant("kept")
        assert [e.name for e in tracer.events] == ["kept"]

    def test_keep_events_false_forwards_to_recorder_only(self):
        from repro.obs import FlightRecorder
        recorder = FlightRecorder(capacity=8)
        tracer = Tracer(env=Clock(), recorder=recorder, keep_events=False)
        tracer.instant("x")
        assert tracer.events == []
        assert len(recorder) == 1


class TestRequestIds:
    def test_request_id_assigned_once(self):
        class Req:
            pass

        tracer = Tracer(env=Clock())
        req = Req()
        rid = tracer.request_id(req)
        assert rid == 1
        assert tracer.request_id(req) == 1

    def test_request_ids_sequential_per_tracer(self):
        class Req:
            pass

        tracer = Tracer(env=Clock())
        assert [tracer.request_id(Req()) for _ in range(3)] == [1, 2, 3]


class TestContext:
    def test_scope_merges_ids_into_events(self):
        tracer = Tracer(env=Clock())
        with tracer.ctx.scope(conn=9):
            event = tracer.instant("reuseport.select", CAT_KERNEL)
        assert event.conn == 9
        assert tracer.ctx.depth == 0

    def test_explicit_ids_beat_context(self):
        tracer = Tracer(env=Clock())
        with tracer.ctx.scope(conn=9, worker=1):
            event = tracer.instant("x", worker=4)
        assert event.worker == 4
        assert event.conn == 9

    def test_nested_scopes_accumulate(self):
        ctx = TraceContext()
        with ctx.scope(worker=1):
            with ctx.scope(conn=2):
                with ctx.scope(request=3):
                    assert ctx.current == {"worker": 1, "conn": 2,
                                           "request": 3}
                assert ctx.current == {"worker": 1, "conn": 2}
        assert ctx.current == {}

    def test_inner_scope_shadows_outer(self):
        ctx = TraceContext()
        with ctx.scope(conn=1):
            with ctx.scope(conn=2):
                assert ctx.current["conn"] == 2
            assert ctx.current["conn"] == 1

    def test_scope_pushes_on_enter_not_on_call(self):
        ctx = TraceContext()
        scope = ctx.scope(conn=4)
        assert ctx.depth == 0
        with scope:
            assert ctx.depth == 1
            assert ctx.current == {"conn": 4}
        assert ctx.depth == 0

    def test_scope_enter_returns_the_context(self):
        ctx = TraceContext()
        with ctx.scope(worker=2) as entered:
            assert entered is ctx

    def test_nested_scopes_merge_ids_into_events(self):
        tracer = Tracer(env=Clock())
        with tracer.ctx.scope(worker=1):
            with tracer.ctx.scope(conn=2, request=3):
                inner = tracer.instant("x")
            outer = tracer.instant("y")
        assert (inner.worker, inner.conn, inner.request) == (1, 2, 3)
        assert (outer.worker, outer.conn, outer.request) == (1, None, None)

    def test_scope_pops_when_body_raises(self):
        ctx = TraceContext()
        with ctx.scope(worker=1):
            with pytest.raises(KeyError, match="boom"):
                with ctx.scope(conn=2):
                    raise KeyError("boom")
            assert ctx.current == {"worker": 1}
        assert ctx.depth == 0

    def test_clear_resets_events(self):
        tracer = Tracer(env=Clock())
        tracer.instant("x")
        tracer.clear()
        assert len(tracer) == 0
