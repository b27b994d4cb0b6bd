"""Which public entry point belongs to which layer, and the per-layer
metrics derived from the traced run's spans and counts."""

from __future__ import annotations

from .spans import LAYERS, Patches, SpanRecorder


def install(rec: SpanRecorder) -> Patches:
    """Wrap every layer boundary the traced run measures; returns the
    installed :class:`Patches` (call ``restore()`` when done)."""
    from repro.check.invariants import InvariantMonitor
    from repro.check.pcc import PccMonitor
    from repro.core.dispatch import HermesDispatchProgram
    from repro.core.scheduler import CascadingScheduler
    from repro.core.wst import WorkerStatusTable
    from repro.fleet.ingress import EcmpIngress
    from repro.fleet.lookup import StatelessLookup
    from repro.fleet.sharded import ShardIngress
    from repro.kernel import hash as khash
    from repro.kernel.epoll import Epoll
    from repro.kernel.reuseport import ReuseportGroup
    from repro.kernel.socket import ListeningSocket
    from repro.kernel.waitqueue import WaitQueue
    from repro.lb.metrics import DeviceMetrics
    from repro.lb.server import LBServer
    from repro.lb.worker import Worker
    from repro.obs.trace import Tracer
    from repro.sim import engine
    from repro.workloads.generator import TrafficGenerator

    patches = Patches()
    count = rec.count

    def method(cls, attr, layer, after=None):
        patches.method(cls, attr, rec.wrap_call(
            f"{layer}.{attr}", cls.__dict__[attr], after))

    method(engine.Environment, "run", "sim")

    # The engine's dispatch loop is inlined: one heap pop per step, so
    # counting pops counts ``env.steps`` from the outside.
    heappop = engine.heappop

    def counted_heappop(queue):
        count("sim.heap_pops")
        return heappop(queue)

    patches.function(heappop, counted_heappop)

    def after_schedule(args, _result):
        # A run with the kernel sync switched off skipped the map update.
        if not args[0].sync_enabled:
            count("core.scheduler.suppressed")

    method(CascadingScheduler, "schedule_and_sync", "core.scheduler",
           after_schedule)
    for attr in ("touch_timestamp", "add_events", "add_conns"):
        method(WorkerStatusTable, attr, "core.wst")

    # A reuseport selection fell back to hashing when the attached program
    # declined or named an unusable socket.
    decision = []

    def after_program(_args, index):
        decision.append(index)

    def after_select(args, chosen):
        group = args[0]
        if group.program is None or chosen is None:
            return
        if not decision:
            raise RuntimeError(
                f"reuseport program {type(group.program).__name__} ran "
                f"unwrapped: fallbacks would go uncounted")
        index = decision.pop()
        if (index is None or not 0 <= index < len(group.sockets)
                or group.sockets[index] is not chosen):
            count("kernel.reuseport.fallbacks")

    method(HermesDispatchProgram, "run", "kernel.reuseport", after_program)
    method(ReuseportGroup, "select", "kernel.reuseport", after_select)
    method(WaitQueue, "wake", "kernel.waitqueue")

    def after_enqueue(args, _ok):
        depth = len(args[0].accept_queue)
        if depth > rec.counts.get("kernel.tcp.backlog_peak", 0):
            rec.counts["kernel.tcp.backlog_peak"] = depth

    method(ListeningSocket, "enqueue", "kernel.tcp", after_enqueue)
    for fn in (khash.jhash_words, khash.jhash_4tuple, khash.reciprocal_scale):
        patches.function(fn, rec.wrap_call(f"kernel.hash.{fn.__name__}", fn))

    worker_run = Worker.__dict__["run"]
    worker_nid = rec.name_id("lb.worker.run")

    def run(self):
        return rec.timed(worker_run(self), worker_nid)

    patches.method(Worker, "run", run)

    epoll_wait = Epoll.__dict__["wait"]
    wait_nid = rec.name_id("kernel.epoll.wait")

    def wait(self, *args, **kwargs):
        count("kernel.epoll.waits")
        woken = []

        def on_resume(_n):
            # Still registered as the sleeper, no longer sleeping: the poll
            # callback woke it (a timeout leaves it sleeping).
            woken.append(not self.is_sleeping)

        def on_return(resumes, events):
            if resumes and woken[-1]:
                count("kernel.epoll.wakeups")
                if events:
                    count("kernel.epoll.useful_wakeups")

        return rec.timed(epoll_wait(self, *args, **kwargs), wait_nid,
                         on_resume, on_return)

    patches.method(Epoll, "wait", wait)
    method(LBServer, "connect", "lb.server")
    method(LBServer, "deliver", "lb.server")
    method(DeviceMetrics, "record_request", "lb.metrics")
    method(TrafficGenerator, "open_connection", "workloads.generator")

    def after_owner(args, owner):
        if owner != args[0].shard_index:
            count("workloads.foreign")

    method(ShardIngress, "owner", "fleet.ingress", after_owner)
    method(EcmpIngress, "pick", "fleet.ingress")
    method(StatelessLookup, "resolve", "fleet.lookup")
    method(StatelessLookup, "assign", "fleet.lookup")
    method(InvariantMonitor, "check_now", "check.invariants")
    method(PccMonitor, "check_now", "check.pcc")
    for attr in ("instant", "begin", "end"):
        method(Tracer, attr, "obs.trace")
    patches.verify(installed=True)
    return patches


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_calls(calls: dict, layer: str) -> int:
    return sum(v for k, v in calls.items() if k.startswith(layer + "."))


def layer_metrics(rec: SpanRecorder, counters: dict, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Per-layer metrics of one traced cell.

    ``counters`` are the program's own end-of-run counters
    (``cells.Outcome.counters``); "per_req" divides by completed requests.
    """
    calls, self_s = rec.summary()
    counts = rec.counts
    req = counters["completed"]
    selects = calls.get("kernel.reuseport.select", 0)
    wakeups = counts.get("kernel.epoll.wakeups", 0)
    sched_calls = calls.get("core.scheduler.schedule_and_sync", 0)
    foreign = counts.get("workloads.foreign", 0)
    out = {
        "sim.events_per_req": _ratio(counters["steps"], req),
        "core.scheduler.calls_per_req": _ratio(sched_calls, req),
        "core.scheduler.sync_suppressed_ratio": _ratio(
            counts.get("core.scheduler.suppressed", 0), sched_calls),
        "core.wst.writes_per_req": _ratio(
            _layer_calls(calls, "core.wst"), req),
        "kernel.reuseport.selects_per_req": _ratio(selects, req),
        "kernel.reuseport.fallback_ratio": _ratio(
            counts.get("kernel.reuseport.fallbacks", 0), selects),
        "workloads.generator.opens_per_req": _ratio(
            _layer_calls(calls, "workloads.generator"), req),
        "kernel.epoll.wakeups_per_req": _ratio(wakeups, req),
        "kernel.epoll.useful_wakeup_ratio": _ratio(
            counts.get("kernel.epoll.useful_wakeups", 0), wakeups),
        "kernel.waitqueue.wakes_per_req": _ratio(
            _layer_calls(calls, "kernel.waitqueue"), req),
        "lb.worker.iterations_per_req": _ratio(
            counts.get("kernel.epoll.waits", 0), req),
        "kernel.tcp.refused_ratio": _ratio(counters["refused"],
                                           counters["conns_opened"]),
        "kernel.tcp.backlog_peak": counts.get("kernel.tcp.backlog_peak", 0),
        "kernel.hash.calls_per_req": _ratio(
            _layer_calls(calls, "kernel.hash"), req),
        "workloads.foreign_ratio": _ratio(
            foreign, foreign + counters["conns_opened"]),
        "fleet.lookup.resolves_per_req": _ratio(
            calls.get("fleet.lookup.resolve", 0), req),
        "check.invariants.ticks": _layer_calls(calls, "check.invariants"),
        "obs.trace.events_per_req": _ratio(
            _layer_calls(calls, "obs.trace"), req),
    }
    for layer in LAYERS:
        own = sum(v for k, v in self_s.items()
                  if k.rsplit(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = own
        out[f"{layer}.share"] = _ratio(own, traced_wall)
    out["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall)
    return out


def cross_check(rec: SpanRecorder, counters: dict) -> list:
    """Wrapped-call counts against the program's own counters; returns
    one message per mismatch."""
    calls = rec.calls()
    counts = rec.counts
    pairs = (
        ("env.steps", counts.get("sim.heap_pops", 0), counters["steps"]),
        ("completed requests", calls.get("lb.metrics.record_request", 0),
         counters["completed"]),
        ("Epoll.total_wakeups", counts.get("kernel.epoll.wakeups", 0),
         counters["epoll_wakeups"]),
        ("Epoll.total_waits", counts.get("kernel.epoll.waits", 0),
         counters["epoll_waits"]),
        ("CascadingScheduler.calls",
         calls.get("core.scheduler.schedule_and_sync", 0),
         counters["sched_calls"]),
        ("CascadingScheduler.syncs_suppressed",
         counts.get("core.scheduler.suppressed", 0),
         counters["syncs_suppressed"]),
        ("WorkerStatusTable.update_ops", _layer_calls(calls, "core.wst"),
         counters["wst_writes"]),
        ("ReuseportGroup selections", calls.get("kernel.reuseport.select", 0),
         counters["reuseport_selects"]),
        ("ReuseportGroup.program_fallbacks",
         counts.get("kernel.reuseport.fallbacks", 0),
         counters["program_fallbacks"]),
        ("TrafficGenerator connections opened",
         calls.get("workloads.generator.open_connection", 0),
         counters["generator_opens"]),
        ("sharded generator foreign", counts.get("workloads.foreign", 0),
         counters["foreign"]),
    )
    return [f"{name}: wrapped {got} != program counter {want}"
            for name, got, want in pairs if got != want]
