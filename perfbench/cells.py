"""The benchmark's workloads, run through the repo's public entry points,
and the end-of-run ledger the correctness gate checks.

Each workload is one seeded simulation of a fixed simulated duration,
driven open-loop (Poisson connection arrivals on the simulated clock at a
fixed fraction of device capacity) in a single process.
"""

from __future__ import annotations

import hashlib
import json
import resource
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List

#: Entry-point arguments per workload; ``duration`` is the simulated
#: seconds of arrivals.
WORKLOADS = {
    "hermes_highcps": dict(kind="case", mode="hermes", case="case1",
                           load="medium", n_workers=8, duration=0.6),
    "exclusive_longlived": dict(kind="case", mode="exclusive", case="case3",
                                load="medium", n_workers=8, duration=3.0),
    "fleet_checked": dict(kind="fleet", policy="stateless", n_instances=8,
                          n_workers=2, duration=3.0, conn_rate=150.0,
                          churn_at=0.6, churn_k=2, ingress="ecmp"),
}


@dataclass
class Outcome:
    """One finished cell: host cost, simulated results, program counters."""

    wall_s: float
    cpu_s: float
    #: Every simulated statistic; must repeat byte for byte for a seed.
    sim: dict
    #: End-of-run program counters (summed over shards for the fleet).
    counters: Dict[str, int]
    latencies: List[float] = field(repr=False)

    def digest(self) -> str:
        blob = json.dumps({"sim": self.sim, "counters": self.counters,
                           "latencies": self.latencies}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def server_counters(server) -> Dict[str, int]:
    """Counters of one :class:`LBServer` after its run, read from public
    state: device metrics, per-worker epolls, Hermes groups, the stack."""
    metrics = server.metrics
    open_conns = [conn for worker in server.workers
                  for conn in worker.conns.values()]
    groups, listening = [], []
    for binding in server.stack.bindings.values():
        if binding.group is not None:
            groups.append(binding.group)
            listening.extend(binding.group.sockets)
        else:
            listening.append(binding.shared)
    queued = [conn for sock in listening for conn in sock.accept_queue]
    return {
        "completed": metrics.requests_completed,
        "failed": metrics.requests_failed,
        "in_flight": sum(len(conn.inbox) for conn in open_conns + queued),
        "accepted": metrics.connections_accepted,
        "refused": metrics.connections_refused,
        "queued": len(queued),
        "open": len(open_conns),
        "closed": sum(worker.metrics.closed for worker in server.workers),
        "syns": server.stack.total_syns,
        "tcp_refused": server.stack.total_refused,
        "epoll_wakeups": sum(w.epoll.total_wakeups for w in server.workers),
        "epoll_waits": sum(w.epoll.total_waits for w in server.workers),
        "sched_calls": sum(g.scheduler.calls for g in server.groups),
        "syncs_suppressed": sum(g.scheduler.syncs_suppressed
                                for g in server.groups),
        "wst_writes": sum(g.wst.update_ops for g in server.groups),
        "reuseport_selects": sum(g.selected_by_program + g.selected_by_hash
                                 for g in groups),
        "program_fallbacks": sum(g.program_fallbacks for g in groups),
    }


def _run_case(spec: dict, seed: int) -> Outcome:
    from repro.experiments.common import run_case_cell
    from repro.lb.server import NotificationMode

    hooked = {}

    def env_hook(env, server, gen):
        hooked["gen"] = gen

    cpu0 = _cpu()
    t0 = perf_counter()
    result = run_case_cell(
        NotificationMode(spec["mode"]), spec["case"], spec["load"],
        n_workers=spec["n_workers"], duration=spec["duration"],
        ports=(443,), seed=seed, keep_server=True, env_hook=env_hook)
    wall = perf_counter() - t0
    cpu = _cpu() - cpu0
    server = result.server
    stats = hooked["gen"].stats
    counters = server_counters(server)
    counters.update(
        steps=server.env.steps,
        conns_opened=stats.connections_opened,
        generator_opens=stats.connections_opened,
        gen_refused=stats.connections_refused,
        conns_reset=stats.connections_reset,
        requests_sent=stats.requests_sent,
        timeouts_499=stats.timeouts_499,
        foreign=0, pcc_violations=0, sharded=0)
    latencies = list(server.metrics.request_latencies.values)
    return Outcome(wall, cpu, result.to_doc(), counters, latencies)


def _run_fleet(spec: dict, seed: int) -> Outcome:
    from repro.check.pcc import PccMonitor
    from repro.fleet.sharded import run_sharded_fleet

    # Each shard's instance is gone when run_sharded_fleet returns; read
    # its counters when the shard finalizes its PCC monitor, after the run.
    shards = []
    finalize = PccMonitor.finalize

    def capturing_finalize(self):
        (instance,) = self.fleet.instances
        shards.append((server_counters(instance),
                       list(instance.metrics.request_latencies.values)))
        return finalize(self)

    PccMonitor.finalize = capturing_finalize
    cpu0 = _cpu()
    t0 = perf_counter()
    try:
        doc = run_sharded_fleet(
            policy=spec["policy"], n_instances=spec["n_instances"],
            n_workers=spec["n_workers"], seed=seed,
            duration=spec["duration"], conn_rate=spec["conn_rate"],
            churn_at=spec["churn_at"], churn_k=spec["churn_k"],
            ingress=spec["ingress"], jobs=1, check=True)
    finally:
        PccMonitor.finalize = finalize
    wall = perf_counter() - t0
    cpu = _cpu() - cpu0
    if len(shards) != spec["n_instances"]:
        raise RuntimeError(f"captured {len(shards)} shard ledgers, expected "
                           f"{spec['n_instances']}")
    counters = {key: sum(c[key] for c, _ in shards) for key in shards[0][0]}
    counters.update(
        steps=doc["steps"], conns_opened=doc["opened"], generator_opens=0,
        gen_refused=doc["conn_refused"], conns_reset=doc["conn_reset"],
        requests_sent=doc["requests_sent"], timeouts_499=0,
        foreign=doc["foreign"], pcc_violations=doc["pcc_violations"],
        sharded=1)
    latencies = [x for _, lat in shards for x in lat]
    return Outcome(wall, cpu, doc, counters, latencies)


def run_cell(workload: str, seed: int) -> Outcome:
    spec = WORKLOADS[workload]
    runner = _run_fleet if spec["kind"] == "fleet" else _run_case
    return runner(spec, seed)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def attempted_failed(c: Dict[str, int]):
    """Simulated requests attempted and failed.  A refused or reset
    connection counts as one request attempted and lost; a request past
    its client deadline (499) counts as failed even if it completed."""
    lost = c["gen_refused"] + c["conns_reset"]
    return (c["requests_sent"] + lost,
            c["failed"] + c["timeouts_499"] + lost)


def ledger_errors(c: Dict[str, int], passes: Dict[str, int] = None) -> list:
    """Conservation across layers, from the program's public counters."""
    errors = []

    def expect(name, got, want):
        if got != want:
            errors.append(f"{name}: {got} != {want}")

    expect("requests sent = completed + failed + in flight",
           c["requests_sent"], c["completed"] + c["failed"] + c["in_flight"])
    expect("connections opened = accepted + refused + queued",
           c["conns_opened"], c["accepted"] + c["refused"] + c["queued"])
    expect("generator refused = server refused", c["gen_refused"],
           c["refused"])
    expect("accepted = closed + open", c["accepted"], c["closed"] + c["open"])
    expect("SYNs = connections opened", c["syns"], c["conns_opened"])
    expect("stack refused = server refused", c["tcp_refused"], c["refused"])
    if c["sharded"]:
        expect("PCC violations", c["pcc_violations"], 0)
        if not passes or min(passes.values()) <= 0:
            errors.append(f"a monitor never passed: {passes}")
    return errors
