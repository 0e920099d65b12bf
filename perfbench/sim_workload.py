"""sim-dqa64: the simulated 64-node cluster under the DQA strategy.

The paper's evaluation protocol answers "the same questions and the same
startup sequence for all tests" (Section 6.1); so does this workload: the
question set is one fixed draw of the TREC-8/9 mix, and the seed drives
the arrival schedule and the DNS front end.  Arrivals are Poisson at a
fixed per-node rate the cluster sustains (about half of its CPU
capacity), conditioned on the question count so every run offers exactly
that rate.  Load monitoring is the paper's all-to-all broadcast (the
default), so host time is spread over the event loop, the resources, the
monitor and the scheduling layers.  Nothing in the real pipeline runs.

A run is whole rounds, each on a freshly built system, that cycle
through three seeded arrival schedules; the simulated metrics pool the
first round of each.  A round that repeats a schedule must give
identical simulated statistics, and so must the first schedule simulated
once more in a child interpreter with another string-hash seed, so that
an order that depends on hashing shows.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from common import ROOT, HostSpeed, Report, median, peak_rss_mb, percentile
from tracing import StackSampler

from repro.core import DistributedQASystem, NodeConfig, Strategy, SystemConfig
from repro.workload import trec_mix_profiles

#: Rounds a run may take at most, whatever ``--seconds`` asks.
MAX_ROUNDS = 8

#: Seconds between two timings of the host-speed kernel while simulating.
SPEED_EVERY_S = 0.05

#: Kernel timings before and after each extra set-up.
SPEED_SETUP_SAMPLES = 20

#: Seconds the child interpreter of the determinism check may take.
CHILD_TIMEOUT_S = 120.0

#: Host-time layers: the modules whose frames a stack sample is charged to.
LAYERS = {
    "simulation.engine": (
        "repro.simulation.engine", "repro.simulation.events",
        "repro.simulation.calendar", "repro.simulation.schedkey",
    ),
    "simulation.resources": (
        "repro.simulation.resources", "repro.simulation.network",
        "repro.simulation.statistics",
    ),
    "core.monitor": ("repro.core.monitor", "repro.core.load"),
    "core.dispatch": (
        "repro.core.dispatcher", "repro.core.meta_scheduler", "repro.core.frontend",
    ),
    "core.partitioning": ("repro.core.partitioning",),
    "core.qa_task": ("repro.core.qa_task", "repro.core.node", "repro.core.system"),
}


@dataclass(frozen=True)
class SimParams:
    n_nodes: int = 64
    n_questions: int = 768
    #: Offered questions per second per node (~0.58 of the CPU bound).
    rate_per_node: float = 0.010
    #: Seed of the fixed question set.
    profile_seed: int = 0
    #: Arrival schedules, one per round in turn; the simulated metrics pool
    #: one round of each, so the p99 has 23 questions beyond it.
    draws: int = 3
    min_rounds: int = 3
    #: Set-ups timed per run (extra ones are built and dropped); a set-up
    #: takes a third of a second, so more of them steady its median.
    min_setups: int = 7


PARAMS = SimParams()
SMALL = SimParams(n_nodes=8, n_questions=24, rate_per_node=0.02)


def arrivals(params: SimParams, seed: int, draw: int) -> list[float]:
    """Poisson arrivals at the fixed rate, conditioned on the question count."""
    rng = np.random.default_rng([seed, 2, draw])
    span = params.n_questions / (params.rate_per_node * params.n_nodes)
    return sorted(rng.uniform(0.0, span, size=params.n_questions).tolist())


def build(params: SimParams, seed: int) -> tuple[list, DistributedQASystem, float]:
    """Start to ready: the question profiles and the simulated system."""
    t0 = time.perf_counter()
    profiles = trec_mix_profiles(params.n_questions, seed=params.profile_seed)
    system = DistributedQASystem(
        SystemConfig(n_nodes=params.n_nodes, strategy=Strategy.DQA, seed=seed)
    )
    return profiles, system, time.perf_counter() - t0


def _count_table_writes(monitoring) -> list[int]:
    """Count the load-table entries ``monitoring.deliver`` writes.

    A broadcast is written into the table of every node that is up, and
    of its sender.  Returns a one-element list the count accumulates in.
    """
    writes = [0]
    deliver = monitoring.deliver

    def counting(snapshot) -> None:
        writes[0] += sum(
            1 for nid, node in monitoring.nodes.items() if node.up or nid == snapshot.node_id
        )
        deliver(snapshot)

    monitoring.deliver = counting
    return writes


def _stats(report) -> tuple:
    """Everything simulated that two same-seed runs must agree on."""
    return (
        report.makespan_s,
        tuple((r.qid, r.sojourn_time, r.response_time) for r in report.results),
        report.migrations_qa, report.migrations_pr, report.migrations_ap,
        tuple(sorted(report.mean_overhead().items())),
    )


def digest(seed: int, small: bool) -> str:
    """Digest of one round's simulated statistics (floats in full)."""
    params = SMALL if small else PARAMS
    profiles, system, _ = build(params, seed)
    result = system.run_workload(profiles, arrivals(params, seed, 0))
    return hashlib.sha256(repr(_stats(result)).encode()).hexdigest()


def _digest_in_child(seed: int, small: bool) -> tuple[str, str]:
    """:func:`digest` from a child interpreter with another string-hash seed.

    Returns (digest, error); one of them is empty.
    """
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import common; "
        "common.import_program(); import sim_workload; "
        "print(sim_workload.digest(int(sys.argv[2]), sys.argv[3] == '1'))"
    )
    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).resolve().parent),
             str(seed), "1" if small else "0"],
            cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "", f"the determinism check's child ran over {CHILD_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        return "", f"the determinism check's child exited {proc.returncode}: {proc.stderr[-300:]}"
    return proc.stdout.strip(), ""


def run(seed: int, seconds: float, trace: bool, small: bool = False) -> Report:
    params = SMALL if small else PARAMS
    report = Report("sim-dqa64")
    due = [arrivals(params, seed, k) for k in range(params.draws)]
    setups: list[float] = []
    walls: list[float] = []
    raw_walls: list[float] = []
    #: Per draw, its first round's (report, statistics).
    firsts: list[tuple] = []
    layers: dict[str, float] = {}
    simulated_s = 0.0
    while len(walls) < params.min_rounds or (simulated_s < seconds and len(walls) < MAX_ROUNDS):
        gc.collect()
        speed = HostSpeed()
        with speed.sampling(SPEED_EVERY_S):
            paused = speed.paused
            profiles, system, setup_s = build(params, seed)
            setup_s -= speed.paused - paused
            paused = speed.paused
            writes = _count_table_writes(system.monitoring) if trace else None
            with StackSampler(LAYERS) if trace else contextlib.nullcontext() as sampler:
                t0 = time.perf_counter()
                result = system.run_workload(profiles, due[len(walls) % params.draws])
                wall = time.perf_counter() - t0 - (speed.paused - paused)
        simulated_s += wall
        # Every time below is at the reference speed (see HostSpeed).
        scale = speed.scale()
        setups.append(setup_s * scale)
        walls.append(wall * scale)
        raw_walls.append(wall)
        if trace:
            events = next(system.env._seq)  # events scheduled, as the scale sweep counts
            layers_now = {f"{layer}.host_share": sampler.share(layer) for layer in LAYERS}
            layers_now.update({
                "simulation.events": float(events),
                "simulation.host_us_per_event": 1e6 * wall * scale / events,
                "core.monitor.table_writes": float(writes[0]),
            })
            for key, value in layers_now.items():
                layers.setdefault(key, 0.0)
                layers[key] += value
        report.attempted += params.n_questions
        report.check(checks.all_completed(result, params.n_questions))
        stats = _stats(result)
        if len(firsts) < params.draws:
            firsts.append((result, stats))
        else:
            report.check(checks.identical(
                firsts[(len(walls) - 1) % params.draws][1], stats, "simulated statistics"))
        if len(walls) == 1:
            node = NodeConfig()
            now = system.env.now
            report.check(checks.cpu_within_capacity(
                [(n.cpu.completed_units, n.cpu.busy.integral(now))
                 for n in system.nodes.values()],
                node.cpu_speed, sum(checks.cpu_demand_s(p) for p in profiles),
            ))
            report.check(checks.over_critical_path(
                result.results, profiles, node.cpu_speed, node.disk_bandwidth))
            bound = checks.capacity_bound_qps(profiles, params.n_nodes, node.cpu_speed)
        del profiles, system, result
    while len(setups) < params.min_setups:
        gc.collect()
        speed = HostSpeed()
        speed.sample(SPEED_SETUP_SAMPLES)
        setup_s = build(params, seed)[2]
        speed.sample(SPEED_SETUP_SAMPLES)
        setups.append(setup_s * speed.scale())

    child, error = _digest_in_child(seed, small)
    report.check([error] if error else checks.identical(
        hashlib.sha256(repr(firsts[0][1]).encode()).hexdigest(), child,
        "simulated statistics (in a child interpreter with another hash seed)",
    ))

    results = [result for result, _ in firsts]
    sojourn = [r.sojourn_time for result in results for r in result.results]
    report.info.update({
        "rounds": len(walls),
        "questions": params.n_questions,
        "offered_qps": params.rate_per_node * params.n_nodes,
        "capacity_bound_qps": bound,
        "raw_host_ms_per_q": 1e3 * median(raw_walls) / params.n_questions,
    })
    if not trace:
        report.metrics.update({
            "setup_s": median(setups),
            "throughput_qps":
                sum(r.n_questions for r in results) / sum(r.makespan_s for r in results),
            "latency_p50_ms": 1e3 * percentile(sojourn, 0.50),
            "latency_p99_ms": 1e3 * percentile(sojourn, 0.99),
            "peak_rss_mb": peak_rss_mb(),
            "host_ms_per_q": 1e3 * median(walls) / params.n_questions,
        })
        return report
    report.metrics.update({key: value / len(walls) for key, value in layers.items()})
    report.metrics.update({
        "simulation.latency_p95_s": percentile(sojourn, 0.95),
        "core.migrations": float(np.mean(
            [r.migrations_qa + r.migrations_pr + r.migrations_ap for r in results])),
        "core.overhead_s_per_q": float(np.mean(
            [sum(r.mean_overhead().values()) for r in results])),
        "trace.host_ms_per_q": 1e3 * median(walls) / params.n_questions,
    })
    return report
