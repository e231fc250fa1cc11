"""Repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3-serial --seed 0 --seconds 20 --trace 0

Workloads: table3-serial, fig11-dag, large-screened, service-mix
(``perfbench/README.md`` says what each stresses and bypasses).

Set-up runs ``SETUP_REPS`` times (``SERVICE_SETUP_REPS`` for
``service-mix``, whose set-up already prefills 200 runs), each in a
fresh worker process (``perfbench/workloads.py``), timed from process
start to ``READY``; ``setup_s`` is their median.  The last worker then
runs the timed phase for ``--seconds`` and checks every output.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of
``BENCHMARK.json``; a human-readable report comes first, the last
line is the JSON result.  Exits 1 when any output is wrong, 2 when
the program under test is missing or the run could not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

SETUP_REPS = 5
SERVICE_SETUP_REPS = 3
#: Seconds a run may take beyond ``--seconds``: the set-ups and the
#: output checks.
RUN_MARGIN_S = 150
HERE = Path(__file__).resolve().parent


def fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program under test: {root / 'src' / 'repro'} is missing "
                    "(run from the repository root)")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    base = root / ".bench_build" / "perfbench"
    run_dir = base / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    deadline = time.monotonic() + args.seconds + RUN_MARGIN_S
    setups = []
    output = ""
    try:
        reps = SERVICE_SETUP_REPS if args.workload == "service-mix" else SETUP_REPS
        for rep in range(reps):
            last = rep == reps - 1
            command = [sys.executable, str(HERE / "workloads.py"),
                       "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--work-dir", str(run_dir / f"rep{rep}")]
            if not last:
                command.append("--setup-only")
            start = time.perf_counter()
            # A session of its own, so a stuck run's server and pool
            # workers are killed with it.
            worker = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                      env=env, start_new_session=True)
            watchdog = threading.Timer(max(deadline - time.monotonic(), 1),
                                       os.killpg, (worker.pid, signal.SIGKILL))
            watchdog.start()
            try:
                line = worker.stdout.readline()
                setups.append(time.perf_counter() - start)
                output = worker.stdout.read()
                code = worker.wait()
            finally:
                watchdog.cancel()
            if line.strip() != "READY" or code != 0:
                return fail(f"worker failed (exit {code}) during "
                            f"{'the timed phase' if line.strip() == 'READY' else 'set-up'}")
        result = json.loads(output.strip().splitlines()[-1])
        traces = base / "traces"
        for name in ("client-trace.json", "server-trace.json"):
            source = run_dir / f"rep{reps - 1}" / name
            if source.exists():
                traces.mkdir(parents=True, exist_ok=True)
                shutil.move(str(source), traces / f"{args.workload}-seed{args.seed}-{name}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    values = dict(result.get("layers", {}))
    values["setup_s"] = statistics.median(setups)
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        if key in result:
            values[key] = result[key]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            return fail(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}

    report(args, result, metrics, setups)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def report(args, result, metrics, setups) -> None:
    """The human-readable part: machine, metrics, sample counts, notes."""
    machine = result["machine"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine: " + ", ".join(f"{key}={value}" for key, value in machine.items()))
    print(f"setup_s samples: {', '.join(f'{value:.3f}' for value in setups)}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} operations)")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    extras = ["raw_wall_p50_s", "ops_per_s", "run_rtt_p50_s", "hit_rtt_p50_s",
              "hit_rtt_p95_s", "list_p50_s", "list_p95_s", "untraced_wall_s"]
    for key in extras:
        value = result.get(key)
        if isinstance(value, list):
            print(f"  {key:34s} {value[0]:14.6g} s  (n={value[1]})")
        elif value is not None:
            print(f"  {key:34s} {value:14.6g}")
    print(f"samples behind wall_s: {result['samples']}")
    if result.get("note"):
        print(f"note: {result['note']}")
    for failure in result.get("failures", []):
        print(f"FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
