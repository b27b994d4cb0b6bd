"""Golden digests of what the tracer emits on an armed sharded fleet.

A 2-instance ``check=True`` sharded fleet at a fixed seed, with backend
churn, exercises every emission path: context-merged kernel events, spans,
monitor arming and fleet events.  The digests pin the flight-recorder dump
and the full kept event list (every ``seq``, timestamp, name, category,
phase, id and field), so any change to how events are built or recorded
that alters one of them fails here.

Re-capture only for an intended change to trace content, by printing
``_run()`` and pasting the two digests below.
"""

import hashlib
import json

import repro.obs
from repro.fleet.sharded import run_sharded_fleet

#: SHA-256 of the JSON of each shard's ``FlightRecorder.dump()``.
DUMP_SHA256 = (
    "9c3e10fc95e19e48b4de4e4a8ec1027403ecbb686cd38789d4da872d62ceb90a")
#: SHA-256 of every slot of every event in each shard's ``Tracer.events``.
EVENTS_SHA256 = (
    "16aab3503a96c897dbf317467b3b39c5ab8f849daafa57e1674beebf3352a324")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(monkeypatch, keep_trace: bool):
    tracers = []

    class KeptTracer(repro.obs.Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracers.append(self)

    monkeypatch.setattr(repro.obs, "Tracer", KeptTracer)
    doc = run_sharded_fleet(n_instances=2, seed=5, duration=1.0,
                            conn_rate=120.0, churn_at=0.6, jobs=1,
                            check=True, keep_trace=keep_trace)
    assert doc["pcc_violations"] == 0
    assert len(tracers) == 2
    dumps = json.dumps([t.recorder.dump() for t in tracers],
                       sort_keys=True, default=repr)
    events = repr([[(e.seq, e.ts, e.name, e.cat, e.phase, e.worker, e.conn,
                     e.request, e.fields) for e in t.events]
                   for t in tracers])
    return _sha256(dumps), _sha256(events), tracers


class TestEmissionGolden:
    def test_flight_recorder_dump(self, monkeypatch):
        dump, _events, tracers = _run(monkeypatch, keep_trace=False)
        assert all(t.events == [] for t in tracers)
        assert all(t.recorder.total_recorded > t.recorder.capacity
                   for t in tracers)
        assert dump == DUMP_SHA256

    def test_kept_events(self, monkeypatch):
        dump, events, tracers = _run(monkeypatch, keep_trace=True)
        for tracer in tracers:
            assert tracer.recorder.total_recorded == len(tracer.events)
        # Keeping the event list changes nothing the recorder sees.
        assert dump == DUMP_SHA256
        assert events == EVENTS_SHA256
