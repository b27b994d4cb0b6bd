"""Runtime invariant monitors for a live :class:`~repro.lb.server.LBServer`.

A monitor is attached *around* a server — the server code has no idea it
is being watched, so an unmonitored run executes zero check instructions
and stays byte-identical to the goldens.  An armed monitor is still
invisible to the results: it only reads (no RNG draws, no metric
counters, no map syscalls), and its periodic process adds heap entries
without disturbing the relative order of any existing events.

Checked invariants, per tick:

- **Connection conservation** — for every plain worker,
  ``accepted == closed + in_flight + crash_resets``, and globally the
  device's accepted total equals the per-worker sum.  Crash resets are
  accounted by wrapping ``LBServer.detect_and_clean_worker``.
- **bitmap ↔ WST ↔ sockarray consistency** (Hermes modes) — the kernel's
  selection word has no bits beyond the group width; every set bit whose
  worker is alive has an installed sockarray slot (a set bit for a
  *crashed* worker is legal inside the failure-detection window — the
  dispatch program falls back); and an alive, never-crashed worker's WST
  connection column equals its live connection count.
- **No lost wakeup** — a worker sleeping in ``epoll_wait`` with ready
  events pending must be woken; if the condition persists across two
  consecutive ticks with no intervening wait, the wakeup was lost.
- **Clock monotonicity** — the sim clock never runs backwards, and no
  WST timestamp comes from the future.
- **Probe-pool conservation** (PREQUAL mode) — every probe sample that
  ever entered the pool is consumed, evicted, or still pooled
  (``issued == consumed + evicted + in_pool``), and the pool never
  exceeds its configured capacity.
- **Splice-ledger conservation** (SPLICE mode) — every request handed to
  the kernel datapath is forwarded, dropped, or still in flight
  (``requests_in == forwarded + dropped + in_flight``, same for bytes),
  and the SOCKMAP never holds more entries than its capacity.

Connection conservation counts *client* connections only: probe
connections (negative tenant ids) are injected by a prober directly into
the worker — they never pass the accept path, so they appear in neither
``accepted`` nor the WST connection columns.

Violations emit a ``check.violation`` trace event, capture a flight-
recorder dump when a recorder is wired, and raise
:class:`InvariantViolation`.  :meth:`InvariantMonitor.finalize` adds a
trace-stream monotonicity sweep (event timestamps and sequence numbers
must be non-decreasing — the span-timeline contract).
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["InvariantViolation", "InvariantMonitor", "watch"]


class InvariantViolation(AssertionError):
    """A runtime invariant failed on a live server.

    ``name`` is the invariant's identifier (e.g. ``"bitmap_wst"``);
    ``flight_events`` carries the flight-recorder dump when the monitor
    had a recorder wired, else ``None``.
    """

    def __init__(self, name: str, message: str,
                 flight_events: Optional[List[dict]] = None):
        super().__init__(f"[{name}] {message}")
        self.name = name
        self.flight_events = flight_events


class InvariantMonitor:
    """Periodically re-derives the stack's invariants from live state."""

    def __init__(self, server, interval: Optional[float] = None,
                 recorder=None, raise_on_violation: bool = True):
        self.server = server
        self.env = server.env
        #: Check cadence; defaults to the epoll timeout (one check per
        #: scheduling interval).
        self.interval = (interval if interval is not None
                         else server.config.epoll_timeout)
        self.recorder = recorder if recorder is not None else (
            server.tracer.recorder if server.tracer is not None else None)
        self.raise_on_violation = raise_on_violation
        #: Violations recorded (at most one when raising).
        self.violations: List[InvariantViolation] = []
        #: invariant name -> number of passing evaluations.
        self.checks_passed: Dict[str, int] = {}
        self.ticks = 0
        self._armed = False
        #: worker_id -> connections reset at failure detection.
        self._resets: Dict[int, int] = {}
        #: Workers that crashed at least once: their WST connection column
        #: legitimately goes stale (a dead publisher never decrements, and
        #: a restarted process inherits the stale base).
        self._crashed_ever = set()
        self._wrapped_detect = None
        self._wrapped_crash = None
        self._shadowed = (False, False)
        self._last_now = self.env.now
        #: worker_id -> (total_waits, total_wakeups) from the previous tick
        #: where the worker slept on pending-ready events.
        self._sleep_suspects: Dict[int, tuple] = {}

    # -- lifecycle -------------------------------------------------------
    def attach(self) -> "InvariantMonitor":
        """Arm the monitor: wrap the crash paths, start the check loop."""
        if self._armed:
            raise RuntimeError("monitor already attached")
        server = self.server
        orig_detect = server.detect_and_clean_worker
        orig_crash = server.crash_worker

        def detect_and_clean(worker_id: int) -> int:
            self._crashed_ever.add(worker_id)
            blast = orig_detect(worker_id)
            self._resets[worker_id] = self._resets.get(worker_id, 0) + blast
            return blast

        def crash_worker(worker_id, cleanup_delay=None):
            self._crashed_ever.add(worker_id)
            return orig_crash(worker_id, cleanup_delay)

        # Remember whether the instance already shadowed the methods (a
        # nested wrapper): restore exactly that state on detach.
        self._shadowed = ("detect_and_clean_worker" in server.__dict__,
                          "crash_worker" in server.__dict__)
        self._wrapped_detect = orig_detect
        self._wrapped_crash = orig_crash
        server.detect_and_clean_worker = detect_and_clean
        server.crash_worker = crash_worker
        self._armed = True
        # A self-rescheduling callback, not a process: callbacks run
        # inline in the dispatch loop, so a violation raised here
        # propagates straight out of ``env.run`` instead of dying inside
        # a process event nobody waits on.
        self.env.schedule_callback(self.interval, self._tick)
        tracer = server.tracer
        if tracer is not None:
            tracer.instant("check.arm", "check", interval=self.interval)
        return self

    def detach(self) -> None:
        """Stop the loop and unwrap the server (idempotent)."""
        self._armed = False
        if self._wrapped_detect is not None:
            server = self.server
            if self._shadowed[0]:
                server.detect_and_clean_worker = self._wrapped_detect
            else:
                server.__dict__.pop("detect_and_clean_worker", None)
            if self._shadowed[1]:
                server.crash_worker = self._wrapped_crash
            else:
                server.__dict__.pop("crash_worker", None)
            self._wrapped_detect = None
            self._wrapped_crash = None

    def _tick(self) -> None:
        if not self._armed:
            return
        self.check_now()
        self.env.schedule_callback(self.interval, self._tick)

    # -- violation plumbing ----------------------------------------------
    def _violate(self, name: str, message: str) -> None:
        dump = self.recorder.dump() if self.recorder is not None else None
        violation = InvariantViolation(name, message, flight_events=dump)
        self.violations.append(violation)
        tracer = self.server.tracer
        if tracer is not None:
            tracer.instant("check.violation", "check", invariant=name,
                           message=message)
        if self.raise_on_violation:
            raise violation

    def _passed(self, name: str) -> None:
        self.checks_passed[name] = self.checks_passed.get(name, 0) + 1

    # -- the invariants ---------------------------------------------------
    def check_now(self) -> None:
        """Evaluate every invariant against the current live state."""
        self.ticks += 1
        self._check_clock()
        # Two checks compare against each worker's live client connections;
        # count them once per tick (nothing between the checks writes).
        client_conns = {worker.worker_id: self._client_conns(worker)
                        for worker in self.server.workers}
        self._check_conservation(client_conns)
        self._check_bitmap_wst(client_conns)
        self._check_lost_wakeup()
        self._check_prequal()
        self._check_splice()

    @staticmethod
    def _client_conns(worker) -> int:
        """Live client connections (probe streams are infrastructure)."""
        return sum(1 for conn in worker.conns.values()
                   if conn.tenant_id >= 0)

    def _check_clock(self) -> None:
        now = self.env.now
        if now < self._last_now:
            self._violate(
                "clock", f"sim clock ran backwards: {self._last_now} -> {now}")
        self._last_now = now
        for group in self.server.groups:
            for rank in range(len(group.worker_ids)):
                t, _events, _conns = group.wst.read_worker(rank)
                if t > now:
                    self._violate(
                        "clock",
                        f"WST timestamp of rank {rank} is in the future: "
                        f"{t} > now {now}")
                    return
        self._passed("clock")

    def _check_conservation(self, client_conns: Dict[int, int]) -> None:
        from ..lb.dispatcher import DispatcherWorker

        total_accepted = 0
        for worker in self.server.workers:
            accepted = worker.metrics.accepted
            total_accepted += accepted
            if isinstance(worker, DispatcherWorker):
                # The dispatcher accepts on behalf of its backends; its
                # own ledger is the backends', checked separately.
                continue
            in_flight = client_conns[worker.worker_id]
            closed = worker.metrics.closed
            resets = self._resets.get(worker.worker_id, 0)
            if accepted != closed + in_flight + resets:
                self._violate(
                    "conservation",
                    f"worker {worker.worker_id}: accepted {accepted} != "
                    f"closed {closed} + in-flight {in_flight} + "
                    f"reset {resets}")
                return
        device_accepted = self.server.metrics.connections_accepted
        if device_accepted != total_accepted:
            self._violate(
                "conservation",
                f"device accepted {device_accepted} != per-worker sum "
                f"{total_accepted}")
            return
        self._passed("conservation")

    def _check_bitmap_wst(self, client_conns: Dict[int, int]) -> None:
        server = self.server
        if not server.groups:
            self._passed("bitmap_wst")
            return
        for group in server.groups:
            width = len(group.worker_ids)
            bitmap = group.sel_map.read_from_user(group.scheduler.sel_key)
            if bitmap >> width:
                self._violate(
                    "bitmap_wst",
                    f"group {group.group_id}: selection bitmap {bitmap:#x} "
                    f"has set bits beyond the group width {width}")
                return
            for rank in range(width):
                worker = server.workers[group.worker_ids[rank]]
                if bitmap & (1 << rank):
                    if worker.is_alive and not group.sock_map.installed(rank):
                        self._violate(
                            "bitmap_wst",
                            f"group {group.group_id}: bit {rank} selects "
                            f"alive worker {worker.worker_id} with no "
                            f"installed sockarray slot")
                        return
                if (worker.is_alive
                        and worker.worker_id not in self._crashed_ever):
                    _t, _events, wst_conns = group.wst.read_worker(rank)
                    held = client_conns[worker.worker_id]
                    if wst_conns != held:
                        self._violate(
                            "bitmap_wst",
                            f"group {group.group_id}: WST conn column of "
                            f"rank {rank} is {wst_conns}, worker "
                            f"{worker.worker_id} holds {held}")
                        return
        self._passed("bitmap_wst")

    def _check_lost_wakeup(self) -> None:
        suspects: Dict[int, tuple] = {}
        for worker in self.server.workers:
            if not worker.is_alive:
                continue
            epoll = worker.epoll
            if epoll.ready_count and epoll.is_sleeping:
                progress = (epoll.total_waits, epoll.total_wakeups)
                previous = self._sleep_suspects.get(worker.worker_id)
                if previous == progress:
                    self._violate(
                        "lost_wakeup",
                        f"worker {worker.worker_id} slept through "
                        f"{epoll.ready_count} ready fd(s) for two check "
                        f"intervals (waits={progress[0]}, "
                        f"wakeups={progress[1]})")
                    return
                suspects[worker.worker_id] = progress
        self._sleep_suspects = suspects
        self._passed("lost_wakeup")

    def _check_prequal(self) -> None:
        prequal = getattr(self.server, "prequal", None)
        if prequal is None:
            self._passed("probe_pool")
            return
        pool = prequal.pool
        if not pool.conserved():
            self._violate(
                "probe_pool",
                f"probe-pool ledger broken: issued {pool.issued} != "
                f"consumed {pool.consumed} + evicted {pool.evicted} + "
                f"in-pool {len(pool.entries)}")
            return
        if len(pool.entries) > pool.capacity:
            self._violate(
                "probe_pool",
                f"probe pool holds {len(pool.entries)} samples, capacity "
                f"is {pool.capacity}")
            return
        self._passed("probe_pool")

    def _check_splice(self) -> None:
        splice = getattr(self.server, "splice", None)
        if splice is None:
            self._passed("splice_ledger")
            return
        engine = splice.engine
        if not engine.conserved():
            self._violate(
                "splice_ledger",
                f"splice ledger broken: requests_in {engine.requests_in} != "
                f"forwarded {engine.requests_forwarded} + dropped "
                f"{engine.requests_dropped} + in-flight "
                f"{engine.requests_in_flight} (bytes_in {engine.bytes_in}, "
                f"forwarded {engine.bytes_forwarded}, dropped "
                f"{engine.bytes_dropped}, in-flight {engine.bytes_in_flight})")
            return
        sockmap = splice.sockmap
        if len(sockmap) > sockmap.capacity:
            self._violate(
                "splice_ledger",
                f"SOCKMAP holds {len(sockmap)} entries, capacity is "
                f"{sockmap.capacity}")
            return
        self._passed("splice_ledger")

    # -- end-of-run checks -------------------------------------------------
    def finalize(self) -> Dict[str, int]:
        """Run a last tick plus the trace-stream monotonicity sweep.

        Returns the ``checks_passed`` counters (handy for reporting).
        Call after ``env.run`` returns; also detaches the monitor.
        """
        self.check_now()
        tracer = self.server.tracer
        events = None
        if tracer is not None and tracer.keep_events:
            events = tracer.events
        elif self.recorder is not None:
            events = self.recorder.snapshot()
        if events:
            last_ts, last_seq = events[0].ts, events[0].seq
            for event in events[1:]:
                if event.ts < last_ts or event.seq <= last_seq:
                    self._violate(
                        "trace_monotonic",
                        f"trace event #{event.seq} ({event.name}) at "
                        f"t={event.ts} regressed behind #{last_seq} at "
                        f"t={last_ts}")
                    break
                last_ts, last_seq = event.ts, event.seq
            else:
                self._passed("trace_monotonic")
        self.detach()
        return dict(self.checks_passed)


def watch(server, interval: Optional[float] = None, recorder=None,
          raise_on_violation: bool = True) -> InvariantMonitor:
    """Attach an :class:`InvariantMonitor` to ``server`` and return it."""
    return InvariantMonitor(
        server, interval=interval, recorder=recorder,
        raise_on_violation=raise_on_violation).attach()
