"""``repro.api`` — the sanctioned programmatic surface.

Every consumer of the experiment pipeline — the CLI, the HTTP job
service (:mod:`repro.service`) and library users — goes through this
facade instead of calling :mod:`repro.experiments.runner` internals:

- :func:`submit_run` — run (or dedup-serve) a validated
  :class:`RunSpec` against a service store, durably, with exact
  resume of partial grids.
- :func:`run_status` / :func:`list_runs` — structured status objects:
  a service run's from its run record and streaming store manifests,
  every listing (and a bare grid's status) from the store's SQLite
  index (:mod:`repro.store.index`), rebuilt from the walk when missing.
- :func:`fetch_report` — the rendered report, byte-identical to the
  same profile run through :func:`~repro.experiments.runner.run_experiment`
  directly (the CLI prints exactly these bytes).
- :func:`cancel_run` — cooperative cancellation (queued runs flip to
  ``cancelled``; in-flight runs finish their durable cells).
- :func:`execute_run` — the shared orchestration core: owns the
  DagExecutor scope for ``dag`` exec plans so no caller duplicates
  that logic.

Result-cache contract
---------------------
A run's identity (:meth:`RunSpec.run_id`) hashes exactly the
result-determining inputs: the experiment id or the canonical task-
graph serialization (content digest, not name), the platform / tech
node / profile budgets via
:meth:`~repro.experiments.common.ExperimentProfile.result_fingerprint`,
and the optimize-kind shape (cores, deadline).  Execution knobs
(``exec_plan``, worker caps) are excluded — by the house determinism
contract they change wall-clock only — so an identical submission
from any tenant lands on the same run directory and is served from
disk instead of re-run.  Tenants are labels on the shared run record,
never separate copies of the work.

On-disk layout (under a service store root)::

    <store_root>/runs/<run id>/
        run.json       # spec payload + state + tenant labels (atomic)
        report.txt     # the rendered report (exact CLI stdout bytes)
        <label>/       # the experiment's own streaming RunStore grid

Every ``run.json`` write also upserts the run's row in the store
root's index when one exists; an index failure raises (the record is
already on disk) instead of leaving listings silently stale.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.common import (
    EXEC_PLANS,
    ExperimentProfile,
    format_table,
    run_cells,
)
from repro.experiments.runner import experiment_ids, run_experiment
from repro.store import fingerprint_payload
from repro.store.index import (
    RUN_RECORD_NAME,
    RUNS_DIRNAME,
    RunEntry,
    StoreIndex,
    iter_service_run_dirs,
    read_run_record,
    service_run_entry,
)

REPORT_NAME = "report.txt"
CANCEL_NAME = "cancel.flag"

#: Run lifecycle states recorded in ``run.json``.  ``"interrupted"`` is
#: additionally *derived* (never written): a record still marked
#: ``running`` whose owning process is gone is surfaced as interrupted
#: until a supervisor re-attaches it (see :func:`reattach_pending`).
RUN_STATES = ("queued", "running", "complete", "failed", "cancelled")
INTERRUPTED_STATE = "interrupted"

#: How stale (seconds) a foreign-host running record's on-disk progress
#: must be before it is presumed orphaned — pid liveness probes only
#: work for local owners.
ORPHAN_GRACE_S = 60.0

_PROFILE_NAMES = ("smoke", "fast", "full")


# ---------------------------------------------------------------------------
# Structured errors: one shape for the CLI, the HTTP service and library use.
# ---------------------------------------------------------------------------


class ApiError(Exception):
    """A structured facade error.

    Carries a stable machine-readable ``code``, the offending
    ``field`` (when the error is about one request field) and the
    HTTP status the service layer should map it to — so validation
    failures surface identically through every consumer.
    """

    code = "api-error"
    http_status = 400
    #: Whether retrying the same request can succeed without any change
    #: on the caller's side (capacity/transient errors: yes; validation
    #: and conflict errors: no).  Serialized in every error body so
    #: clients need no out-of-band status-code lore.
    retryable = False
    #: Seconds the caller should back off before retrying, when the
    #: server knows (mapped to a ``Retry-After`` header by the service).
    retry_after_s: Optional[float] = None

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.message = message
        self.field = field

    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "code": self.code,
            "message": self.message,
            "retryable": bool(self.retryable),
        }
        if self.field is not None:
            document["field"] = self.field
        return document


class ValidationError(ApiError):
    """The submission payload is malformed or names unknown entities."""

    code = "invalid-request"
    http_status = 400


class UnknownRunError(ApiError):
    """No run with the requested id exists under the store root."""

    code = "unknown-run"
    http_status = 404


class RunConflictError(ApiError):
    """The request conflicts with the run's current state."""

    code = "run-conflict"
    http_status = 409


class StoreError(ApiError):
    """The store cannot answer: its index failed or its layout is retired."""

    code = "store-error"
    http_status = 500


# ---------------------------------------------------------------------------
# The run specification: one validated, canonical description of a job.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """A validated, canonical description of one submitted run.

    Two kinds share the shape: ``"experiment"`` runs a paper artifact
    by id; ``"optimize"`` runs the Fig. 4 soft error-aware
    optimization on a client-supplied task graph (the
    :func:`~repro.taskgraph.serialize.graph_to_dict` serialization).
    Build instances through :meth:`from_payload`, which rejects
    unknown experiments / platforms / tech nodes / profiles with
    structured :class:`ValidationError`\\ s instead of deep-run
    failures.
    """

    kind: str = "experiment"
    experiment_id: Optional[str] = None
    graph: Optional[Mapping[str, Any]] = None
    num_cores: int = 4
    deadline_s: Optional[float] = None
    profile_name: str = "fast"
    seed: int = 0
    platform: Optional[str] = None
    tech_node: Optional[str] = None
    sa_restarts: Optional[int] = None
    exec_max_workers: Optional[int] = None
    exec_plan: Optional[str] = None

    _PAYLOAD_KEYS = (
        "experiment",
        "graph",
        "num_cores",
        "deadline_s",
        "profile",
        "seed",
        "platform",
        "tech_node",
        "restarts",
        "max_workers",
        "exec_plan",
    )

    @classmethod
    def coerce(cls, value: Union["RunSpec", str, Mapping[str, Any]]) -> "RunSpec":
        """A :class:`RunSpec` from a spec, an experiment id, or a payload."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.from_payload({"experiment": value})
        if isinstance(value, Mapping):
            return cls.from_payload(value)
        raise ValidationError(
            f"cannot build a run spec from {type(value).__name__}"
        )

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunSpec":
        """Validate a submission payload into a spec (structured errors)."""
        if not isinstance(payload, Mapping):
            raise ValidationError("submission payload must be a JSON object")
        unknown = sorted(set(payload) - set(cls._PAYLOAD_KEYS) - {"tenant"})
        if unknown:
            raise ValidationError(
                f"unknown field(s) {', '.join(unknown)}; expected "
                f"{', '.join(cls._PAYLOAD_KEYS)}",
                field=unknown[0],
            )
        experiment = payload.get("experiment")
        graph = payload.get("graph")
        if (experiment is None) == (graph is None):
            raise ValidationError(
                "exactly one of 'experiment' (a paper artifact id) or "
                "'graph' (a serialized task graph to optimize) is required",
                field="experiment",
            )
        if experiment is not None:
            if experiment not in experiment_ids():
                raise ValidationError(
                    f"unknown experiment {experiment!r}; choose from "
                    f"{', '.join(experiment_ids())}",
                    field="experiment",
                )
            kind = "experiment"
        else:
            if not isinstance(graph, Mapping) or "tasks" not in graph:
                raise ValidationError(
                    "'graph' must be a graph_to_dict() serialization "
                    "(an object with a 'tasks' list)",
                    field="graph",
                )
            try:
                from repro.taskgraph.serialize import graph_from_dict

                graph_from_dict(dict(graph))
            except ValidationError:
                raise
            except Exception as exc:
                raise ValidationError(
                    f"invalid task graph: {exc}", field="graph"
                ) from None
            kind = "optimize"
        profile_name = payload.get("profile", "fast")
        if profile_name not in _PROFILE_NAMES:
            raise ValidationError(
                f"unknown profile {profile_name!r}; choose from "
                f"{', '.join(_PROFILE_NAMES)}",
                field="profile",
            )
        platform = payload.get("platform")
        if platform is not None:
            from repro.arch.platform import platform_names

            if platform not in platform_names():
                raise ValidationError(
                    f"unknown platform {platform!r}; choose from "
                    f"{', '.join(platform_names())}",
                    field="platform",
                )
        tech_node = payload.get("tech_node")
        if tech_node is not None:
            from repro.arch.technode import TechNode

            try:
                TechNode.parse(str(tech_node))
            except ValueError as exc:
                raise ValidationError(str(exc), field="tech_node") from None
        exec_plan = payload.get("exec_plan")
        if exec_plan is not None and exec_plan not in EXEC_PLANS:
            raise ValidationError(
                f"unknown exec_plan {exec_plan!r}; choose from "
                f"{', '.join(EXEC_PLANS)}",
                field="exec_plan",
            )
        seed = _validated_int(payload, "seed", 0, minimum=0)
        num_cores = _validated_int(payload, "num_cores", 4, minimum=1)
        restarts = payload.get("restarts")
        if restarts is not None:
            restarts = _validated_int(payload, "restarts", None, minimum=1)
        max_workers = payload.get("max_workers")
        if max_workers is not None:
            max_workers = _validated_int(payload, "max_workers", None, minimum=1)
        deadline_s = payload.get("deadline_s")
        if kind == "optimize":
            if deadline_s is None:
                raise ValidationError(
                    "'deadline_s' (the real-time constraint, in seconds) "
                    "is required for task-graph submissions",
                    field="deadline_s",
                )
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                raise ValidationError(
                    "'deadline_s' must be a number", field="deadline_s"
                ) from None
            if deadline_s <= 0:
                raise ValidationError(
                    "'deadline_s' must be positive", field="deadline_s"
                )
        elif deadline_s is not None:
            raise ValidationError(
                "'deadline_s' applies to task-graph submissions only",
                field="deadline_s",
            )
        return cls(
            kind=kind,
            experiment_id=experiment,
            graph=dict(graph) if graph is not None else None,
            num_cores=num_cores,
            deadline_s=deadline_s,
            profile_name=profile_name,
            seed=seed,
            platform=platform,
            tech_node=tech_node,
            sa_restarts=restarts,
            exec_max_workers=max_workers,
            exec_plan=exec_plan,
        )

    def to_payload(self) -> Dict[str, Any]:
        """The canonical payload (round-trips through :meth:`from_payload`)."""
        payload: Dict[str, Any] = {"profile": self.profile_name, "seed": self.seed}
        if self.kind == "experiment":
            payload["experiment"] = self.experiment_id
        else:
            payload["graph"] = dict(self.graph or {})
            payload["num_cores"] = self.num_cores
            payload["deadline_s"] = self.deadline_s
        for key, value in (
            ("platform", self.platform),
            ("tech_node", self.tech_node),
            ("restarts", self.sa_restarts),
            ("max_workers", self.exec_max_workers),
            ("exec_plan", self.exec_plan),
        ):
            if value is not None:
                payload[key] = value
        return payload

    @property
    def label(self) -> str:
        """The run's human prefix (experiment id, or the graph's name)."""
        if self.kind == "experiment":
            return str(self.experiment_id)
        name = str((self.graph or {}).get("name", "graph"))
        safe = "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in name)
        return f"optimize-{safe or 'graph'}"

    def build_profile(self) -> ExperimentProfile:
        """The :class:`ExperimentProfile` this spec describes (no store)."""
        if self.profile_name == "full":
            profile = ExperimentProfile.full(seed=self.seed)
        elif self.profile_name == "smoke":
            profile = ExperimentProfile.smoke(seed=self.seed)
        else:
            profile = ExperimentProfile.fast(seed=self.seed)
        if self.platform is not None or self.tech_node is not None:
            profile = profile.with_platform(
                platform=self.platform, tech_node=self.tech_node
            )
        if self.sa_restarts is not None:
            profile = replace(profile, sa_restarts=self.sa_restarts)
        if self.exec_max_workers is not None:
            profile = profile.with_max_workers(self.exec_max_workers)
        if self.exec_plan is not None:
            profile = profile.with_exec_plan(self.exec_plan)
        return profile

    def run_id(self) -> str:
        """The deterministic run identity: label + result digest.

        Hashes the profile's result fingerprint (platform, tech node,
        budgets, seed — execution knobs excluded) plus the canonical
        graph content for optimize runs, so identical submissions from
        any tenant collide on the same run directory and are served
        from the result cache.
        """
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "profile_fingerprint": self.build_profile().result_fingerprint(),
        }
        if self.kind == "experiment":
            payload["experiment"] = self.experiment_id
        else:
            payload["graph"] = fingerprint_payload(dict(self.graph or {}))
            payload["num_cores"] = self.num_cores
            payload["deadline_s"] = repr(self.deadline_s)
        return f"{self.label}-{fingerprint_payload(payload)[:12]}"


def _validated_int(
    payload: Mapping[str, Any], key: str, default: Any, minimum: int
) -> Any:
    value = payload.get(key, default)
    if value is default:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"'{key}' must be an integer", field=key)
    if value < minimum:
        raise ValidationError(f"'{key}' must be >= {minimum}", field=key)
    return value


# ---------------------------------------------------------------------------
# Status objects: what the CLI renders and the HTTP service returns.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunStatus:
    """One run's observable state, merged from record + store manifests."""

    run_id: str
    label: str
    state: str
    directory: str
    total: int = 0
    completed: int = 0
    failed: int = 0
    fingerprint: Optional[str] = None
    profile: Mapping[str, Any] = field(default_factory=dict)
    tenants: Tuple[str, ...] = ()
    executor: Optional[Mapping[str, Any]] = None
    error: Optional[str] = None
    cells: Tuple[str, ...] = ()
    cell_status: Mapping[str, str] = field(default_factory=dict)

    @property
    def pending(self) -> int:
        return max(0, self.total - self.completed - self.failed)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON view (CLI ``runs --json`` and ``GET /v1/runs/<id>``)."""
        document: Dict[str, Any] = {
            "run_id": self.run_id,
            "label": self.label,
            "state": self.state,
            "cells": {
                "total": self.total,
                "completed": self.completed,
                "failed": self.failed,
                "pending": self.pending,
            },
            "profile": dict(self.profile),
            "tenants": list(self.tenants),
        }
        if self.fingerprint is not None:
            document["fingerprint"] = self.fingerprint
        if self.executor is not None:
            document["executor"] = dict(self.executor)
        if self.error is not None:
            document["error"] = self.error
        if self.cell_status:
            document["cell_status"] = {
                key: self.cell_status.get(key, "?") for key in self.cells
            }
        return document


@dataclass(frozen=True)
class RunSubmission:
    """The result of one :func:`submit_run` call.

    ``cached`` is True when the run was served complete from the
    result cache; ``scheduled`` is True when *this* call transitioned
    the run to ``queued`` (the caller owns getting it executed —
    :func:`submit_run` with ``wait=True`` does so immediately, the
    service enqueues it).  A submission that joins a run another
    tenant already queued has both flags False.
    """

    run_id: str
    state: str
    cached: bool
    scheduled: bool = False
    report: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "state": self.state,
            "cached": self.cached,
        }


@dataclass(frozen=True)
class RunOutcome:
    """What :func:`execute_run` hands back to direct callers."""

    result: Any
    report: str
    executor_stats: Optional[Any] = None


# ---------------------------------------------------------------------------
# Run records (run.json): tiny, atomic, concurrent-reader safe.
# ---------------------------------------------------------------------------


def _run_directory(store_root: Union[str, Path], run_id: str) -> Path:
    """The run's directory: ``<store_root>/runs/<run id>``."""
    if not run_id or "/" in run_id or run_id.startswith("."):
        raise UnknownRunError(f"malformed run id {run_id!r}")
    return Path(store_root) / RUNS_DIRNAME / run_id


def _write_run_record(run_dir: Path, record: Mapping[str, Any]) -> None:
    # Atomic like the store manifest: a polling reader never sees a
    # torn document, only the previous or the next one.
    document = json.dumps(dict(record), indent=2, sort_keys=True)
    temporary = run_dir / (RUN_RECORD_NAME + ".tmp")
    temporary.write_text(document + "\n", encoding="utf-8")
    os.replace(temporary, run_dir / RUN_RECORD_NAME)
    # A store nobody has listed yet has no index: the first listing
    # builds it from the walk, which sees this record.
    index = StoreIndex.attach(run_dir)
    if index is not None:
        index.update_entry(service_run_entry(run_dir, record))


def _owner_document() -> Dict[str, Any]:
    """Who holds a queued/running record: enough to probe liveness later."""
    return {
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "attached_at": time.time(),
    }


def _progress_mtime(run_dir: Path) -> Optional[float]:
    """Newest on-disk progress timestamp of a run (record + manifests)."""
    newest: Optional[float] = None
    candidates = [run_dir / RUN_RECORD_NAME]
    try:
        candidates.extend(run_dir.rglob("manifest.json"))
    except OSError:
        pass
    for path in candidates:
        try:
            mtime = path.stat().st_mtime
        except OSError:
            continue
        if newest is None or mtime > newest:
            newest = mtime
    return newest


def _record_orphaned(run_dir: Path, record: Mapping[str, Any]) -> bool:
    """Whether a queued/running record's owning process is gone.

    Local owners are probed directly (``os.kill(pid, 0)``); for a
    record owned by another host the only signal is on-disk progress,
    so it counts as orphaned once nothing has been written for
    :data:`ORPHAN_GRACE_S`.  Owner-less (legacy) records are never
    presumed orphaned — there is nothing to probe.
    """
    if str(record.get("state", "")) not in ("queued", "running"):
        return False
    owner = record.get("owner")
    if not isinstance(owner, Mapping):
        return False
    pid = owner.get("pid")
    host = owner.get("host")
    if host == socket.gethostname() and isinstance(pid, int):
        if pid == os.getpid():
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:
            # EPERM and friends: the pid exists but is not ours to
            # signal — alive as far as we can tell.
            return False
        return False
    newest = _progress_mtime(run_dir)
    return newest is not None and (time.time() - newest) > ORPHAN_GRACE_S


def _set_state(run_dir: Path, state: str, error: Optional[str] = None) -> None:
    record = read_run_record(run_dir)
    if record is None:
        raise UnknownRunError(f"no run record under {run_dir}")
    record["state"] = state
    record["error"] = error
    # Ownership follows the lifecycle: the executing process stamps
    # itself on running records (that is what orphan detection probes)
    # and terminal states drop the claim.
    if state in ("queued", "running"):
        record["owner"] = _owner_document()
    else:
        record.pop("owner", None)
    _write_run_record(run_dir, record)


def _cancel_requested(run_dir: Path) -> bool:
    return (run_dir / CANCEL_NAME).exists()


# ---------------------------------------------------------------------------
# Execution: the one place orchestration logic lives.
# ---------------------------------------------------------------------------


def execute_run(
    experiment_id: str,
    profile: Optional[ExperimentProfile] = None,
    source: Optional[str] = None,
) -> RunOutcome:
    """Run one experiment under the profile's execution plan.

    The shared orchestration core: under a ``dag`` exec plan this owns
    the :class:`~repro.exec.dag.DagExecutor` for the whole run (so
    even experiments that never open a grid ship their leaves through
    it) unless an ambient executor scope is already active — the
    service's job workers open one per job, nested grids reuse it.
    Any other plan runs with that scope masked, so a serial profile
    stays serial wherever it is executed.  The CLI ``experiment``
    subcommand and the service both call this; neither duplicates the
    scope logic.
    """
    from repro.exec.dag import DagExecutor, current_executor, executor_scope

    profile = profile or ExperimentProfile.fast()
    if not profile.uses_dag_executor():
        with executor_scope(None):
            result, report = run_experiment(experiment_id, profile)
        return RunOutcome(result, report, None)
    ambient = current_executor()
    if ambient is not None:
        result, report = run_experiment(experiment_id, profile)
        return RunOutcome(result, report, ambient.stats)
    with DagExecutor.from_spec(
        profile.dag_transport(), max_workers=profile.exec_max_workers
    ) as executor:
        with executor_scope(executor, source or experiment_id):
            result, report = run_experiment(experiment_id, profile)
        stats = executor.stats
    return RunOutcome(result, report, stats)


@dataclass(frozen=True)
class OptimizeJob:
    """One task-graph optimization as a store-managed grid cell.

    Running client graphs through :func:`run_cells` (a one-cell grid
    labelled ``optimize``) buys the whole store contract for free:
    streaming persistence, fingerprint-gated exact resume, and the
    manifest the service polls for status.
    """

    graph: Any
    num_cores: int
    deadline_s: float
    profile: ExperimentProfile

    def run(self) -> Any:
        from repro.experiments.common import build_optimizer

        optimizer = build_optimizer(
            self.graph,
            self.num_cores,
            self.deadline_s,
            self.profile,
        )
        return optimizer.optimize()


def _render_optimize_report(
    spec: RunSpec, profile: ExperimentProfile, graph: Any, outcome: Any
) -> str:
    """The deterministic text report for an optimize-kind run."""
    lines = [
        f"Optimization — {graph.name} ({graph.num_tasks} tasks, "
        f"{spec.num_cores} cores)",
        f"profile: {profile.name} (seed={profile.seed})",
        f"deadline: {spec.deadline_s * 1e3:.1f} ms",
        "",
    ]
    if outcome.best is None:
        lines.append("no feasible design found")
    else:
        best = outcome.best
        lines.append(f"design: {best.summary()}")
        for core, tasks in enumerate(best.mapping.core_groups()):
            level = best.scaling[core]
            joined = ", ".join(tasks) if tasks else "-"
            lines.append(f"  core {core + 1} (s={level}): {joined}")
    lines.append("")
    lines.append(
        f"assessed {len(outcome.assessments)} scaling combinations, "
        f"{outcome.evaluations} design-point evaluations"
    )
    return "\n".join(lines)


def _execute_spec(
    spec: RunSpec, profile: ExperimentProfile, source: Optional[str] = None
) -> Tuple[Any, str]:
    """Run a spec under a (store-carrying) profile; return (result, report)."""
    if spec.kind == "experiment":
        outcome = execute_run(spec.experiment_id, profile, source=source)
        return outcome.result, outcome.report
    from repro.taskgraph.serialize import graph_from_dict

    graph = graph_from_dict(dict(spec.graph or {}))
    job = OptimizeJob(
        graph=graph,
        num_cores=spec.num_cores,
        deadline_s=float(spec.deadline_s or 0.0),
        profile=profile,
    )
    if profile.uses_dag_executor():
        from repro.exec.dag import DagExecutor, current_executor, executor_scope

        if current_executor() is None:
            with DagExecutor.from_spec(
                profile.dag_transport(), max_workers=profile.exec_max_workers
            ) as executor:
                with executor_scope(executor, source or spec.label):
                    (outcome,) = run_cells([job], profile, label="optimize")
        else:
            (outcome,) = run_cells([job], profile, label="optimize")
    else:
        (outcome,) = run_cells([job], profile, label="optimize")
    return outcome, _render_optimize_report(spec, profile, graph, outcome)


# ---------------------------------------------------------------------------
# The facade surface: submit / status / report / list / cancel.
# ---------------------------------------------------------------------------


def submit_run(
    spec: Union[RunSpec, str, Mapping[str, Any]],
    store_root: Union[str, Path],
    tenant: str = "default",
    wait: bool = True,
    exec_plan: Optional[str] = None,
) -> RunSubmission:
    """Submit a run against a service store; dedup-serve identical runs.

    With ``wait=True`` (the library default) a fresh submission
    executes synchronously and returns with the finished report; with
    ``wait=False`` it is only registered as ``queued`` — the caller
    (the job service) executes it later via :func:`run_submitted`.

    Identical resubmissions hit the result cache: a ``complete`` run
    is served from disk (``cached=True``, no cell re-executes, no
    evaluator traffic) and its record gains this ``tenant`` label; a
    run another submission already queued or started is joined, not
    duplicated.  ``failed``/``cancelled`` runs are re-queued, and the
    store's fingerprint-gated resume re-dispatches only their missing
    cells.  ``exec_plan`` overrides how a *fresh* execution runs (it
    is an execution knob, outside the run identity).
    """
    spec = RunSpec.coerce(spec)
    run_id = spec.run_id()
    run_dir = _run_directory(store_root, run_id)
    run_dir.mkdir(parents=True, exist_ok=True)
    existing = read_run_record(run_dir)
    record = existing or {
        "format": 1,
        "run_id": run_id,
        "label": spec.label,
        "state": "queued",
        "spec": spec.to_payload(),
        "tenants": [],
        "error": None,
    }
    tenants = list(record.get("tenants", []))
    if tenant not in tenants:
        tenants.append(tenant)
    record["tenants"] = tenants
    state = str(record.get("state", "queued"))
    report_path = run_dir / REPORT_NAME
    if state == "complete" and report_path.exists():
        _write_run_record(run_dir, record)
        return RunSubmission(
            run_id=run_id,
            state="complete",
            cached=True,
            report=report_path.read_text(encoding="utf-8"),
        )
    if (
        existing is not None
        and state in ("queued", "running")
        and not _record_orphaned(run_dir, record)
    ):
        if not wait:
            # Another submission already owns execution: join it.
            _write_run_record(run_dir, record)
            return RunSubmission(run_id=run_id, state=state, cached=False)
        if state == "running":
            _write_run_record(run_dir, record)
            raise RunConflictError(
                f"run {run_id} is already in flight; poll run_status() "
                "or submit through the job service"
            )
    # Fresh, failed, cancelled, stale-complete (report lost), or
    # orphaned (owning process died): (re-)queue it under this owner.
    record["state"] = "queued"
    record["error"] = None
    record["owner"] = _owner_document()
    cancel_marker = run_dir / CANCEL_NAME
    if cancel_marker.exists():
        cancel_marker.unlink()
    _write_run_record(run_dir, record)
    if not wait:
        return RunSubmission(
            run_id=run_id, state="queued", cached=False, scheduled=True
        )
    return run_submitted(store_root, run_id, exec_plan=exec_plan)


def run_submitted(
    store_root: Union[str, Path],
    run_id: str,
    exec_plan: Optional[str] = None,
) -> RunSubmission:
    """Execute a previously queued run (the job-service worker path).

    Rebuilds the spec from the run record, streams the run's grids
    into the run directory (resuming any durable partial work), writes
    ``report.txt`` and flips the record to ``complete``.  A cancel
    marker set while the run was queued wins here: the run flips to
    ``cancelled`` without executing.  Failures mark the record
    ``failed`` and re-raise for the caller.
    """
    run_dir = _run_directory(store_root, run_id)
    record = read_run_record(run_dir)
    if record is None:
        raise UnknownRunError(f"no run {run_id!r} under {store_root}")
    if _cancel_requested(run_dir):
        _set_state(run_dir, "cancelled")
        return RunSubmission(run_id=run_id, state="cancelled", cached=False)
    spec = RunSpec.from_payload(record.get("spec", {}))
    profile = spec.build_profile()
    if profile.exec_plan is None and exec_plan is not None:
        profile = profile.with_exec_plan(exec_plan)
    profile = profile.with_store(str(run_dir), resume=True)
    _set_state(run_dir, "running")
    try:
        _, report = _execute_spec(spec, profile, source=run_id)
    except Exception as exc:
        _set_state(run_dir, "failed", error=f"{type(exc).__name__}: {exc}")
        raise
    text = report + "\n"
    (run_dir / REPORT_NAME).write_text(text, encoding="utf-8")
    _set_state(run_dir, "complete")
    return RunSubmission(
        run_id=run_id, state="complete", cached=False, report=text
    )


def reattach_pending(store_root: Union[str, Path]) -> List[str]:
    """Adopt orphaned queued/running runs (supervisor re-attach on boot).

    Walks the store's service run records and claims every run whose
    previous owner died — ``running`` records with a dead owner, and
    ``queued`` records that are owner-less or dead-owned — by flipping
    them back to ``queued`` under this process.  Returns the adopted
    run ids (sorted, because the walk is).  The caller (the job
    manager) re-dispatches them through :func:`run_submitted`; the
    store's fingerprint-keyed resume then skips every cell the dead
    server already completed, so recovery recomputes nothing.
    """
    runs_dir = Path(store_root) / RUNS_DIRNAME
    adopted: List[str] = []
    for run_dir in iter_service_run_dirs(runs_dir):
        record = read_run_record(run_dir)
        if record is None:
            continue
        state = str(record.get("state", ""))
        if state == "running":
            if not _record_orphaned(run_dir, record):
                continue
        elif state == "queued":
            has_owner = isinstance(record.get("owner"), Mapping)
            if has_owner and not _record_orphaned(run_dir, record):
                continue
        else:
            continue
        record["state"] = "queued"
        record["error"] = None
        record["owner"] = _owner_document()
        _write_run_record(run_dir, record)
        adopted.append(str(record.get("run_id", run_dir.name)))
    return adopted


def _status_from_entry(
    entry: RunEntry, record: Optional[Mapping[str, Any]] = None
) -> RunStatus:
    """The :class:`RunStatus` of one index or walk entry.

    Whether a ``running`` run's owning process is still alive is a
    live property no stored row can carry, so it is probed here (from
    ``record``, or a fresh read of ``run.json``): a record still
    marked running whose owner is gone will never progress until a
    supervisor re-attaches it, and reads as ``interrupted``.
    """
    state = entry.state
    if state == "running":
        if record is None:
            record = read_run_record(entry.directory)
        if record is not None and _record_orphaned(entry.directory, record):
            state = INTERRUPTED_STATE
    return RunStatus(
        run_id=entry.run_id,
        label=entry.label,
        state=state,
        directory=str(entry.directory),
        total=entry.total,
        completed=entry.completed,
        failed=entry.failed,
        fingerprint=entry.fingerprint,
        profile=dict(entry.profile),
        tenants=tuple(entry.tenants),
        executor=dict(entry.executor) if entry.executor else None,
        error=entry.error,
        cells=tuple(entry.cells),
        cell_status=dict(entry.cell_status),
    )


def run_status(store_root: Union[str, Path], run_id: str) -> RunStatus:
    """The status of one run (service runs and bare grid stores alike).

    A service run's progress comes straight from the streaming store
    manifests the executor rewrites as cells complete — polling a run
    mid-execution is the intended use, and the store readers tolerate
    a writer mid-append.  Any other id is looked up among the bare
    grids (the CLI's ``--store-dir`` layout) in the store's index, by
    label or directory name.
    """
    root = Path(store_root)
    run_dir = _run_directory(root, run_id)
    record = read_run_record(run_dir)
    if record is not None:
        return _status_from_entry(service_run_entry(run_dir, record), record)
    entry = StoreIndex.ensure(root).lookup_run(run_id)
    if entry is None:
        raise UnknownRunError(f"no run {run_id!r} under {root}")
    return _status_from_entry(entry)


def list_runs(
    store_root: Union[str, Path], tenant: Optional[str] = None
) -> List[RunStatus]:
    """Every run under a store root, service records and bare grids both.

    Service-managed runs (under ``runs/``) come first, sorted by run
    id, then the bare grid directories ``repro-seu experiment
    --store-dir`` writes, so one listing — and one ``runs --json``
    shape — covers both layouts.  ``tenant`` filters to runs carrying
    that label.  The answer always comes from the store's SQLite
    index, which is first rebuilt from the directory walk when it is
    missing or from another schema version; every index or layout
    failure raises :class:`~repro.store.index.StoreIndexError`.
    """
    entries = StoreIndex.ensure(store_root).entries(tenant)
    return [_status_from_entry(entry) for entry in entries]


def rebuild_index(store_root: Union[str, Path]) -> int:
    """Rebuild the store's index from the on-disk truth.

    Walks every run record and manifest under the root and replaces
    every row of ``index.sqlite`` atomically (the records are the only
    authority — this is always safe, whatever rows the index held).
    A file that is not an SQLite database at all raises
    :class:`~repro.store.index.StoreIndexError`; delete it to rebuild.
    Returns the number of indexed runs.
    """
    return StoreIndex.at(store_root).rebuild()


def fetch_report(store_root: Union[str, Path], run_id: str) -> str:
    """The finished report's exact bytes (CLI-stdout identical).

    Raises :class:`UnknownRunError` for unknown runs and
    :class:`RunConflictError` while the run has not completed —
    callers poll :func:`run_status` first.
    """
    run_dir = _run_directory(store_root, run_id)
    record = read_run_record(run_dir)
    if record is None:
        raise UnknownRunError(f"no run {run_id!r} under {store_root}")
    state = str(record.get("state", "queued"))
    report_path = run_dir / REPORT_NAME
    if state != "complete" or not report_path.exists():
        raise RunConflictError(
            f"run {run_id} is {state}; the report exists once it completes"
        )
    return report_path.read_text(encoding="utf-8")


def cancel_run(store_root: Union[str, Path], run_id: str) -> RunStatus:
    """Request cancellation of a run (cooperative).

    Queued runs flip to ``cancelled`` immediately and are skipped at
    dispatch.  Running runs only get the marker: their in-flight cells
    finish and stay durable (a later identical submission resumes
    them), but the job service will not restart the run.  Completed
    runs are left untouched — cancelling a cache entry would discard
    shared work other tenants rely on.
    """
    run_dir = _run_directory(store_root, run_id)
    record = read_run_record(run_dir)
    if record is None:
        raise UnknownRunError(f"no run {run_id!r} under {store_root}")
    state = str(record.get("state", "queued"))
    if state in ("queued", "running"):
        (run_dir / CANCEL_NAME).write_text("cancel\n", encoding="utf-8")
        if state == "queued":
            _set_state(run_dir, "cancelled")
    return run_status(store_root, run_id)


def format_runs_table(statuses: Sequence[RunStatus]) -> str:
    """The ``repro-seu runs`` table, rendered from status objects."""
    rows = [
        [
            status.label,
            status.state,
            f"{status.completed}/{status.total}",
            str(status.failed),
            str(status.profile.get("name", "?")),
            str(status.profile.get("seed", "?")),
            str(status.fingerprint or "?"),
        ]
        for status in statuses
    ]
    headers = ["Run", "Status", "Done", "Failed", "Profile", "Seed", "Fingerprint"]
    return format_table(headers, rows)


__all__ = [
    "ApiError",
    "INTERRUPTED_STATE",
    "OptimizeJob",
    "RunConflictError",
    "RunOutcome",
    "RunSpec",
    "RunStatus",
    "RunSubmission",
    "StoreError",
    "UnknownRunError",
    "ValidationError",
    "cancel_run",
    "execute_run",
    "fetch_report",
    "format_runs_table",
    "list_runs",
    "reattach_pending",
    "rebuild_index",
    "run_status",
    "run_submitted",
    "submit_run",
]
