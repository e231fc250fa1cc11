"""Benchmark worker: set up one workload, time it, check its outputs.

Run by ``perfbench/run.py`` in a fresh process per set-up; prints
``READY`` once set up (imports done, pool spawned, server listening,
store prefilled) and, unless ``--setup-only``, the timed phase's
result as one JSON line.  ``perfbench/make_refs.py`` imports the op
functions below to write the committed references, so the benchmark
and its references run the same code.

Workloads (see ``perfbench/README.md`` for why each was chosen):

``table3-serial``
    Table III on the smoke profile, serial default plan.  One op is one
    core-count column (MPEG-2 and the 20-task graph) of the grid; the
    apps keep their Table III indices, so every cell is the paper
    table's cell.
``fig11-dag``
    The Fig. 11 level study (6 cores, 2/3/4 levels) on a 20-task graph
    under ``dag:process`` with 2 workers; the pool is spawned in set-up.
    Its report must equal the serial report byte for byte.
``large-screened``
    ``DesignOptimizer.optimize`` with ``screen_moves=True`` on a
    100-task graph and 6 cores; one op sweeps one scaling of the
    power-ordered sweep (a full sweep runs 40-50 s).
``service-mix``
    ``repro-seu serve`` in a subprocess over a prefilled store; two
    closed-loop client threads driving the repository's ServiceClient.

Inputs come from the seed: op ``i`` of a compute workload uses input
set ``(seed + i) % INPUT_SEEDS``, each with committed references.
Searches spend different numbers of design point evaluations on
different inputs, so the compute workloads report time per op scaled
to the average op's reference work (see ``ComputeWorkload.__init__``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent

#: Input sets per workload with committed references.
INPUT_SEEDS = 8
#: Scalings of the power-ordered sweep cycled by large-screened.
LARGE_SCALINGS = 4
LARGE_TASKS = 100
FIG11_TASKS = 20
#: service-mix: prefilled completed runs ("a few hundred"; the count is
#: an assumption, not taken from a usage record), client threads, poll
#: interval.
PREFILL_RUNS = 200
CLIENT_THREADS = 2
POLL_S = 0.01
#: One client cycle follows the repository's service round trip (the CI
#: service leg runs ``examples/service_client.py`` twice as two tenants):
#: the first tenant submits a fresh spec, waits, fetches the report and
#: reads the status; the second resubmits the same spec (a dedup hit),
#: fetches the report and reads the status.  No record lists runs over
#: HTTP; one listing per cycle is an assumption.
SERVICE_MIX = ("write", "status", "hit", "status", "list")
TENANTS = ("bench-first", "bench-second")


# ---------------------------------------------------------------------------
# Ops shared with make_refs.py: each returns the text output to check.
# ---------------------------------------------------------------------------


def table3_op(input_seed: int, op: int) -> Tuple[str, str]:
    """One core-count column of Table III (MPEG-2 + 20-task graph)."""
    from repro.experiments import table3
    from repro.experiments.common import ExperimentProfile

    cores = table3.CORE_COUNTS[op % len(table3.CORE_COUNTS)]
    profile = ExperimentProfile.smoke(seed=input_seed)
    apps = table3.table3_applications(profile)[:2]
    result = table3.run_table3(profile, core_counts=(cores,), applications=apps)
    return f"cores={cores}", result.format_table()


def fig11_inputs(input_seed: int):
    from repro.taskgraph.random_graphs import RandomGraphConfig, random_task_graph

    config = RandomGraphConfig(num_tasks=FIG11_TASKS)
    graph = random_task_graph(config, seed=input_seed + FIG11_TASKS)
    return graph, config.deadline_s * 1.6  # run_fig11's default slack


def fig11_op(input_seed: int, op: int, exec_plan: Optional[str] = None) -> Tuple[str, str]:
    """The level study; ``exec_plan`` None is the serial reference path."""
    from repro.experiments import fig11, runner
    from repro.experiments.common import ExperimentProfile

    profile = ExperimentProfile.smoke(seed=input_seed)
    if exec_plan is not None:
        profile = profile.with_exec_plan(exec_plan).with_max_workers(2)
    graph, deadline_s = fig11_inputs(input_seed)
    result = fig11.run_fig11(profile, graph=graph, deadline_s=deadline_s)
    return "levels=2,3,4", runner.render_report("fig11", result, profile)


def large_op(input_seed: int, op: int) -> Tuple[str, str]:
    """One scaling of the screened sweep on a 100-task graph."""
    from dataclasses import replace

    from repro.experiments.common import ExperimentProfile, build_optimizer
    from repro.optim import platform_scaling_combinations
    from repro.taskgraph.random_graphs import RandomGraphConfig, random_task_graph

    config = RandomGraphConfig(num_tasks=LARGE_TASKS)
    graph = random_task_graph(config, seed=input_seed + LARGE_TASKS)
    profile = replace(ExperimentProfile.smoke(seed=input_seed), screen_moves=True)
    optimizer = build_optimizer(graph, 6, config.deadline_s, profile)
    sweep = sorted(platform_scaling_combinations(optimizer.platform),
                   key=optimizer.power_proxy)
    scaling = tuple(sweep[op % LARGE_SCALINGS])
    outcome = optimizer.optimize(scalings=[scaling])
    point = outcome.assessments[0].point
    lines = [point.summary()]
    for core, tasks in enumerate(point.mapping.core_groups()):
        lines.append(f"  core {core + 1} (s={scaling[core]}): {', '.join(tasks) or '-'}")
    return "scaling=" + ",".join(map(str, scaling)), "\n".join(lines)


# ---------------------------------------------------------------------------
# Process-tree accounting (Linux /proc).
# ---------------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _tree_pids() -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    pids, queue = [], [os.getpid()]
    while queue:
        pid = queue.pop()
        pids.append(pid)
        queue.extend(children.get(pid, ()))
    return pids


def tree_cpu_s() -> float:
    """user+sys seconds of this process and its live descendants."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    for pid in _tree_pids()[1:]:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def tree_peak_rss_mb() -> float:
    """Sum of the per-process peak RSS (VmHWM) over the process tree."""
    total_kb = 0
    for pid in _tree_pids():
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Compute workloads: ops repeated for the timed phase.
# ---------------------------------------------------------------------------


class ComputeWorkload:
    """A compute workload: ops checked against committed references."""

    name = ""
    note = ""

    def __init__(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        with open(HERE / "refs" / f"{self.name}.json", encoding="utf-8") as handle:
            self.refs = json.load(handle)["inputs"]
        # wall_s/cpu_s are scaled to the mean reference work of an op, so
        # every seed reports seconds per op of average size.
        self.nominal_work = statistics.fmean(
            op["work"] for ops in self.refs.values() for op in ops
        )
        self.next_op = 0
        self.failures: List[str] = []

    def setup(self) -> Dict[str, float]:
        return {}

    def run_op(self, input_seed: int, op: int) -> Tuple[str, str]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def executor_stats(self) -> Optional[Dict[str, Any]]:
        return None

    def toggle_server_trace(self) -> None:
        pass

    def measure(self, seconds: float) -> Dict[str, Any]:
        ops = []
        start = time.perf_counter()
        while True:
            # Consecutive ops walk consecutive input sets, so one run
            # averages over several inputs.
            index = self.next_op
            self.next_op += 1
            input_seed = (self.seed + index) % INPUT_SEEDS
            cycle = self.refs[str(input_seed)]
            ref = cycle[index % len(cycle)]
            self.tracer.set_request(f"op{index}")
            wall0, cpu0 = time.perf_counter(), tree_cpu_s()
            try:
                key, text = self.run_op(input_seed, index)
                ok = key == ref["key"] and text == ref["output"]
                if not ok:
                    self.failures.append(f"op {index} ({ref['key']}): output differs from reference")
            except Exception as exc:  # count the failure, keep measuring
                ok = False
                self.failures.append(f"op {index}: {type(exc).__name__}: {exc}")
            ops.append({
                "wall": time.perf_counter() - wall0,
                "cpu": tree_cpu_s() - cpu0,
                "work": ref["work"],
                "ok": ok,
            })
            if time.perf_counter() - start >= seconds:
                break
        return {"ops": ops, "elapsed": time.perf_counter() - start}

    def summarise(self, phase: Dict[str, Any]) -> Dict[str, Any]:
        ops = phase["ops"]
        scale = self.nominal_work / sum(op["work"] for op in ops)
        return {
            "wall_s": sum(op["wall"] for op in ops) * scale,
            "cpu_s": sum(op["cpu"] for op in ops) * scale,
            "attempted": len(ops),
            "failed": sum(not op["ok"] for op in ops),
            "raw_wall_p50_s": statistics.median(op["wall"] for op in ops),
            "ops_per_s": len(ops) / phase["elapsed"],
            "samples": len(ops),
        }


class Table3Serial(ComputeWorkload):
    name = "table3-serial"

    def run_op(self, input_seed: int, op: int) -> Tuple[str, str]:
        return table3_op(input_seed, op)


class Fig11Dag(ComputeWorkload):
    name = "fig11-dag"
    note = ("sched/mapping/optim.search work runs in the 2 pool workers and is "
            "recorded from the parent side only (leaf dispatch and return: exec.*)")

    executor = None

    def setup(self) -> Dict[str, float]:
        from repro.exec.dag import DagExecutor

        start = time.perf_counter()
        self.executor = DagExecutor.from_spec("process", max_workers=2)
        self.executor.map(abs, [0, 1])  # spawn both workers now
        return {"exec.pool_spawn_s": time.perf_counter() - start}

    def run_op(self, input_seed: int, op: int) -> Tuple[str, str]:
        from repro.exec.dag import executor_scope

        # The ambient executor is reused by run_cells, as under the CLI.
        with executor_scope(self.executor, "fig11"):
            return fig11_op(input_seed, op, exec_plan="dag:process")

    def executor_stats(self) -> Optional[Dict[str, Any]]:
        return self.executor.stats.to_dict()

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()


class LargeScreened(ComputeWorkload):
    name = "large-screened"
    note = "one op = DesignOptimizer.optimize over one scaling of the sweep"

    def run_op(self, input_seed: int, op: int) -> Tuple[str, str]:
        return large_op(input_seed, op)


# ---------------------------------------------------------------------------
# service-mix: a server subprocess and a closed-loop client.
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    """A service response that is not what the round trip expects."""


def _tiny_spec(seed: int, cores: int, rng: random.Random) -> Dict[str, Any]:
    from repro.taskgraph.random_graphs import RandomGraphConfig, random_task_graph
    from repro.taskgraph.serialize import graph_to_dict

    config = RandomGraphConfig(num_tasks=rng.randint(4, 8))
    graph = random_task_graph(config, seed=seed)
    return {"graph": graph_to_dict(graph), "num_cores": cores,
            "deadline_s": config.deadline_s, "profile": "smoke", "seed": seed % 1000}


class ServiceMix:
    name = "service-mix"
    note = ("client: one process, 2 closed-loop threads, the repository's ServiceClient "
            f"(one connection per request) with retries off, status polled every "
            f"{POLL_S * 1e3:.0f} ms (+-25% jitter)")

    def __init__(self, seed: int, tracer, work_dir: Path, traced: bool) -> None:
        self.seed = seed
        self.tracer = tracer
        self.work_dir = work_dir
        self.traced = traced
        self.failures: List[str] = []
        self.lock = threading.Lock()
        self.server: Optional[subprocess.Popen] = None
        self.fresh: List[Tuple[Dict[str, Any], str]] = []
        self.round = 0

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> Dict[str, float]:
        from repro import api

        store = self.work_dir / "store"
        rng = random.Random(f"prefill:{self.seed}")
        for index in range(PREFILL_RUNS):
            api.submit_run(_tiny_spec(10_000 * self.seed + index, 1, rng), store, wait=True)
        if self.traced:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(self.work_dir / "server-trace.json")]
        else:
            command = [sys.executable, "-m", "repro.cli"]
        command += ["serve", "--store-dir", str(store), "--port", "0"]
        self.server = subprocess.Popen(command, stderr=subprocess.PIPE, text=True)
        line = self.server.stderr.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split("listening on ", 1)[1].split()[0]
        # Drain the request log so the server never blocks on a full pipe.
        self._log = threading.Thread(target=self.server.stderr.read, daemon=True)
        self._log.start()
        return {}

    def close(self) -> None:
        if self.server is None:
            return
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self._log.join(timeout=10)
        self.server = None

    def toggle_server_trace(self) -> None:
        if self.server is not None and self.traced:
            self.server.send_signal(signal.SIGUSR1)

    # -- the client -----------------------------------------------------------

    def _client(self):
        """A ServiceClient without retries whose routes record client spans."""
        from repro.exec.resilience import RetryPolicy
        from repro.service.client import ServiceClient

        client = ServiceClient(self.url, retry=RetryPolicy.no_retry())
        for route, method in (("submit", "submit"), ("status", "status"),
                              ("report", "report"), ("list", "runs")):
            setattr(client, method, functools.partial(
                self.tracer.call, f"service.http.{route}", getattr(client, method)))
        return client

    def _write(self, client, spec, samples) -> Tuple[str, str]:
        """Fresh submission -> wait -> report; returns (run id, report)."""
        start = time.perf_counter()
        submission = client.submit(spec, tenant=TENANTS[0])
        if submission["cached"]:
            raise CheckFailed(f"fresh submission {submission['run_id']} was a cache hit")
        run_id = submission["run_id"]
        submitted = time.perf_counter()
        # wait() polls through client.status; observe each poll.
        polls: List[Tuple[float, str]] = []
        status = client.status

        def observed(poll_id):
            document = status(poll_id)
            polls.append((time.perf_counter(), document.get("state")))
            return document

        client.status = observed
        try:
            final = client.wait(run_id, timeout=60, poll_interval=POLL_S)
        finally:
            client.status = status
        if final["state"] != "complete":
            raise CheckFailed(f"fresh run {run_id} ended {final['state']}")
        report = client.report(run_id)
        samples["run"].append(time.perf_counter() - start)
        samples["polls"].append(len(polls))
        samples["queue_wait"].append(next(
            (at - submitted for at, state in polls if state != "queued"), None))
        with self.lock:
            self.fresh.append((spec, report))
        return run_id, report

    def _hit(self, client, spec, run_id: str, report: str, samples) -> None:
        """Another tenant resubmits the spec: a dedup hit -> report."""
        start = time.perf_counter()
        submission = client.submit(spec, tenant=TENANTS[1])
        if not submission["cached"] or submission["run_id"] != run_id:
            raise CheckFailed(f"resubmission of {run_id} was not a cache hit")
        text = client.report(run_id)
        samples["hit"].append(time.perf_counter() - start)
        if text != report:
            raise CheckFailed(f"dedup hit {run_id}: report differs from the fresh report")

    def _status(self, client, run_id: str, tenants) -> None:
        document = client.status(run_id)
        if document["state"] != "complete" or not set(tenants) <= set(document["tenants"]):
            raise CheckFailed(f"status of {run_id}: {document['state']}, "
                              f"tenants {document['tenants']}")

    def _list(self, client, samples) -> None:
        start = time.perf_counter()
        runs = client.runs()
        samples["list"].append(time.perf_counter() - start)
        samples["store_runs"] = len(runs)

    def _client_loop(self, thread: int, stop_at: float, samples) -> None:
        rng = random.Random(f"client:{self.seed}:{thread}:{self.round}")
        client = self._client()
        cycle = 0
        while time.perf_counter() < stop_at:
            cycle_start = time.perf_counter()
            seed = (1_000_000_000 + 1_000_000 * self.seed + 100_000 * thread
                    + 10_000 * self.round + cycle)
            spec = _tiny_spec(seed, 2, rng)
            run: Optional[Tuple[str, str]] = None
            tenants: List[str] = []
            for step, kind in enumerate(SERVICE_MIX):
                self.tracer.set_request(f"t{thread}c{cycle}s{step}")
                samples["attempted"] += 1
                try:
                    if kind == "write":
                        run = self._write(client, spec, samples)
                        tenants = [TENANTS[0]]
                    elif run is None:
                        raise CheckFailed("skipped: the cycle's fresh write failed")
                    elif kind == "hit":
                        self._hit(client, spec, *run, samples)
                        tenants.append(TENANTS[1])
                    elif kind == "status":
                        self._status(client, run[0], tenants)
                    else:
                        self._list(client, samples)
                except Exception as exc:  # count the failure, keep measuring
                    samples["failed"] += 1
                    self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            samples["cycle"].append(time.perf_counter() - cycle_start)
            cycle += 1

    def _fail(self, message: str) -> None:
        with self.lock:
            self.failures.append(message)

    def measure(self, seconds: float) -> Dict[str, Any]:
        per_thread = [
            {"run": [], "hit": [], "list": [], "cycle": [],
             "queue_wait": [], "polls": [], "attempted": 0, "failed": 0, "store_runs": 0}
            for _ in range(CLIENT_THREADS)
        ]
        start = time.perf_counter()
        cpu0 = tree_cpu_s()
        threads = [
            threading.Thread(target=self._client_loop, args=(index, start + seconds, per_thread[index]))
            for index in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        merged: Dict[str, Any] = {"elapsed": elapsed, "cpu": tree_cpu_s() - cpu0}
        for key in per_thread[0]:
            values = [samples[key] for samples in per_thread]
            merged[key] = (max(values) if key == "store_runs"
                           else sum(values, []) if isinstance(values[0], list)
                           else sum(values))
        self.round += 1
        return merged

    def summarise(self, phase: Dict[str, Any]) -> Dict[str, Any]:
        cycles = phase["cycle"]
        summary = {
            "wall_s": statistics.median(cycles),
            "cpu_s": phase["cpu"] / len(cycles),
            "attempted": phase["attempted"],
            "failed": phase["failed"],
            "ops_per_s": (phase["attempted"] - phase["failed"]) / phase["elapsed"],
            "samples": len(cycles),
        }
        for label, key in (("run_rtt", "run"), ("hit_rtt", "hit"), ("list", "list")):
            values = sorted(phase[key])
            summary[f"{label}_p50_s"] = [statistics.median(values), len(values)] if values else None
            # p95 only with at least ten samples beyond it.
            if len(values) >= 200:
                summary[f"{label}_p95_s"] = [statistics.quantiles(values, n=20)[-1], len(values)]
        return summary

    def verify_fresh(self) -> int:
        """Recompute every fresh run in-process; count report mismatches.

        The server runs unpinned submissions on its default ``dag``
        plan, whose optimize reports count the sweep's speculative
        evaluations; the in-process run uses the same plan (on the
        serial transport) so the two must agree byte for byte.
        """
        from repro import api

        store = self.work_dir / "verify"
        bad = 0
        for spec, report in self.fresh:
            expected = api.submit_run(spec, store, wait=True, exec_plan="dag:serial").report
            if expected != report:
                bad += 1
                self._fail(f"fresh run seed={spec['seed']}: report differs from the api path")
        return bad

    def executor_stats(self) -> Optional[Dict[str, Any]]:
        from repro.service.client import ServiceClient

        return ServiceClient(self.url).health().get("executor")


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced phase.
# ---------------------------------------------------------------------------

#: Layers whose self time (busy minus child spans) is reported.
SELF_TIMED = ("sched.schedule", "mapping.evaluate", "mapping.preview",
              "optim.optimize", "optim.search", "experiments.run", "exec.map",
              "store.append", "api.submit")


def layer_metrics(stats: Dict[str, List[float]], counters: Dict[str, float],
                  before: Optional[Dict[str, Any]], after: Optional[Dict[str, Any]],
                  extra: Dict[str, float]) -> Dict[str, float]:
    def calls(name):
        return int(stats.get(name, [0, 0, 0])[0])

    def busy(name):
        return float(stats.get(name, [0, 0, 0])[1])

    metrics: Dict[str, float] = {}
    for name in ("taskgraph.compile", "sched.schedule", "mapping.evaluate",
                 "mapping.preview", "optim.optimize", "optim.search", "store.append",
                 "store.list", "api.submit", "api.status", "api.report"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = busy(name)
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = float(stats.get(name, [0, 0, 0])[2])
    hits = counters.get("mapping.cache.hits", 0)
    misses = counters.get("mapping.cache.misses", 0)
    metrics["mapping.cache.hits"] = hits
    metrics["mapping.cache.misses"] = misses
    metrics["mapping.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    assessed = calls("optim.search")
    used = counters.get("optim.scalings.used", 0)
    metrics["optim.scalings.assessed"] = assessed
    metrics["optim.scalings.used"] = used
    metrics["optim.scalings.useful_ratio"] = used / assessed if assessed else 0.0
    metrics["experiments.cells"] = counters.get("experiments.cells", 0)
    metrics["experiments.run.s"] = busy("experiments.run")
    for key, name in (("tasks", "exec.leaves"), ("steals", "exec.steals"),
                      ("retries", "exec.retries"), ("worker_restarts", "exec.worker_restarts")):
        metrics[name] = (after or {}).get(key, 0) - (before or {}).get(key, 0)
    metrics["exec.queue_high_water"] = (after or {}).get("queue_high_water", 0)
    metrics["exec.map.s"] = busy("exec.map")
    for route in ("submit", "list", "status", "report"):
        metrics[f"service.http.{route}.calls"] = calls(f"service.http.{route}")
        metrics[f"service.http.{route}.s"] = busy(f"service.http.{route}")
    metrics.update({"store.runs": 0, "service.queue_wait_s": 0.0,
                    "service.polls_per_run": 0.0})
    metrics.update(extra)
    return metrics


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro  # noqa: F401  (the import cost is part of set-up)
    import_s = time.perf_counter() - start
    sys.path.insert(0, str(HERE))
    from tracer import Tracer, install

    tracer = Tracer()
    if args.trace:
        install(tracer)
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed
    workloads: Dict[str, Callable[[], Any]] = {
        "table3-serial": lambda: Table3Serial(seed, tracer),
        "fig11-dag": lambda: Fig11Dag(seed, tracer),
        "large-screened": lambda: LargeScreened(seed, tracer),
        "service-mix": lambda: ServiceMix(seed, tracer, work_dir, bool(args.trace)),
    }
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    workload = workloads[args.workload]()
    try:
        setup_extra = workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result, layers = run_traced(workload, args.seconds, tracer)
        else:
            result = workload.summarise(workload.measure(args.seconds))
            result["peak_rss_mb"] = tree_peak_rss_mb()
    finally:
        workload.close()
    if args.trace:
        stats, counters, before, after, extra = layers
        tracer.dump(str(work_dir / "client-trace.json"))
        server_trace = work_dir / "server-trace.json"
        if server_trace.exists():  # fold the server process's spans in
            with open(server_trace, encoding="utf-8") as handle:
                server = json.load(handle)
            for name, (calls, busy, self_s) in server["stats"].items():
                entry = stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += busy
                entry[2] += self_s
            for name, value in server["counters"].items():
                counters[name] = counters.get(name, 0) + value
        extra["proc.import_s"] = import_s
        extra["exec.pool_spawn_s"] = setup_extra.get("exec.pool_spawn_s", 0.0)
        result["layers"] = layer_metrics(stats, counters, before, after, extra)
    if isinstance(workload, ServiceMix):
        result["failed"] += workload.verify_fresh()
    result["failures"] = workload.failures[:20]
    result["machine"] = machine_info()
    result["note"] = workload.note
    print(json.dumps(result), flush=True)
    return 0


def run_traced(workload, seconds: float, tracer):
    """An untraced half, then a traced half of the timed phase.

    The difference in ``wall_s`` between the halves is the tracing
    overhead; the per-layer inputs come from the traced half.
    """
    untraced = workload.summarise(workload.measure(seconds / 2))
    before = workload.executor_stats()
    tracer.enable()
    workload.toggle_server_trace()
    phase = workload.measure(seconds / 2)
    tracer.disable()
    workload.toggle_server_trace()
    after = workload.executor_stats()
    traced = workload.summarise(phase)
    extra = {"trace.overhead_s": traced["wall_s"] - untraced["wall_s"]}
    if isinstance(workload, ServiceMix):
        waits = [wait for wait in phase["queue_wait"] if wait is not None]
        extra["store.runs"] = phase["store_runs"]
        extra["service.queue_wait_s"] = statistics.median(waits) if waits else 0.0
        extra["service.polls_per_run"] = statistics.fmean(phase["polls"]) if phase["polls"] else 0.0
    traced["untraced_wall_s"] = untraced["wall_s"]
    traced["attempted"] += untraced["attempted"]
    traced["failed"] += untraced["failed"]
    summary = tracer.summary()
    return traced, (summary["stats"], summary["counters"], before, after, extra)


def machine_info() -> Dict[str, Any]:
    import multiprocessing
    import platform

    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mp_start_method": multiprocessing.get_start_method(),
    }


if __name__ == "__main__":
    sys.exit(main())
