"""Fault-tolerant execution: retry policies, chaos injection, recovery.

Covers the :mod:`repro.exec.resilience` primitives (deterministic
backoff schedules, the seeded fault-injecting transport), the
executor-level retry loop (injected crashes, real worker death with
pool rebuild, leaf deadlines), and the house invariant under fire:
a grid that loses a process-pool worker mid-flight still reassembles
results byte-identical to an undisturbed run.
"""

import os
from dataclasses import dataclass

import pytest

from repro.exec import (
    CHAOS_ENV,
    DagExecutor,
    ExecutorStats,
    FaultInjectingTransport,
    FaultPlan,
    InjectedTransientError,
    InjectedWorkerCrash,
    LeafTimeoutError,
    PoolTransport,
    RetryPolicy,
    SerialTransport,
    current_executor,
)
from repro.experiments import ExperimentProfile, run_table3
from repro.experiments.common import run_cells
from repro.taskgraph import RandomGraphConfig, random_task_graph


def _square(value):
    return value * value


#: No-sleep policy for tests that only care about retry *behaviour*.
FAST_RETRY = RetryPolicy(max_attempts=5, base_delay_s=0.0, jitter=0.0)


# ---------------------------------------------------------------------------
# RetryPolicy: deterministic backoff schedules
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_schedule_is_deterministic_and_seeded(self):
        policy = RetryPolicy(seed=3)
        assert policy.schedule("cell:4") == policy.schedule("cell:4")
        assert policy.schedule("cell:4") != policy.schedule("cell:5")
        assert policy.schedule() == RetryPolicy(seed=3).schedule()
        assert RetryPolicy(seed=1).schedule() != RetryPolicy(seed=2).schedule()

    def test_schedule_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(
            max_attempts=5,
            base_delay_s=0.1,
            backoff_factor=2.0,
            max_delay_s=60.0,
            jitter=0.1,
        )
        schedule = policy.schedule("k")
        assert len(schedule) == 4  # one entry per retry, not per attempt
        for attempt, delay in enumerate(schedule, start=1):
            nominal = 0.1 * 2.0 ** (attempt - 1)
            assert nominal * 0.9 <= delay <= nominal * 1.1

    def test_delay_capped_at_max(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=1.0, max_delay_s=2.0, jitter=0.0
        )
        assert policy.delay_s(8) == 2.0

    def test_no_jitter_is_exact(self):
        policy = RetryPolicy(base_delay_s=0.5, backoff_factor=3.0, jitter=0.0)
        assert policy.delay_s(1) == 0.5
        assert policy.delay_s(2) == 1.5

    def test_no_retry_policy(self):
        policy = RetryPolicy.no_retry()
        assert policy.max_attempts == 1
        assert policy.schedule() == []

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError, match="leaf_timeout_s"):
            RetryPolicy(leaf_timeout_s=0.0)
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay_s(0)

    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.retryable(InjectedWorkerCrash("x"))
        assert policy.retryable(InjectedTransientError("x"))
        assert policy.retryable(LeafTimeoutError("x"))
        from concurrent.futures import BrokenExecutor
        from concurrent.futures.process import BrokenProcessPool

        assert policy.retryable(BrokenExecutor("x"))
        assert policy.retryable(BrokenProcessPool("x"))
        # A leaf's own exception is deterministic — never retried.
        assert not policy.retryable(ValueError("x"))
        assert not policy.retryable(KeyboardInterrupt())


# ---------------------------------------------------------------------------
# FaultPlan: the chaos spec
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_from_spec_full(self):
        plan = FaultPlan.from_spec(
            "crash=0.05, delay=0.1, error=0.02, delay_s=0.5, seed=7,"
            " max_faults=40"
        )
        assert plan == FaultPlan(
            seed=7,
            crash_rate=0.05,
            error_rate=0.02,
            delay_rate=0.1,
            delay_s=0.5,
            max_faults=40,
        )

    def test_from_spec_rejects_bad_input(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.from_spec("explode=1")
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.from_spec("crash")
        with pytest.raises(ValueError, match="bad fault spec value"):
            FaultPlan.from_spec("crash=lots")
        with pytest.raises(ValueError, match="sum to at most 1"):
            FaultPlan(crash_rate=0.6, error_rate=0.6)
        with pytest.raises(ValueError, match="crash_rate"):
            FaultPlan(crash_rate=1.5)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(CHAOS_ENV, "crash=0.1,seed=3")
        plan = FaultPlan.from_env()
        assert plan is not None
        assert plan.crash_rate == 0.1 and plan.seed == 3


# ---------------------------------------------------------------------------
# FaultInjectingTransport: seeded, reproducible chaos
# ---------------------------------------------------------------------------


class TestFaultInjectingTransport:
    def _run(self, plan, count=60):
        transport = FaultInjectingTransport(SerialTransport(), plan)
        # Deep retry budget: at the aggressive rates used here a leaf
        # occasionally draws several faults in a row, and exhaustion is
        # not what these tests measure.
        policy = RetryPolicy(max_attempts=25, base_delay_s=0.0, jitter=0.0)
        with DagExecutor(transport, retry_policy=policy) as executor:
            results = executor.map(_square, list(range(count)))
        return transport, executor, results

    def test_same_seed_same_faults(self):
        plan = FaultPlan(
            seed=11, crash_rate=0.2, error_rate=0.1, delay_rate=0.1, delay_s=0.0
        )
        first, _, results_a = self._run(plan)
        second, _, results_b = self._run(plan)
        assert first.injected  # the rates actually injected something
        assert first.injected == second.injected
        assert results_a == results_b == [n * n for n in range(60)]

    def test_different_seed_different_faults(self):
        base = FaultPlan(seed=1, crash_rate=0.3, delay_rate=0.2, delay_s=0.0)
        first, _, _ = self._run(base)
        second, _, _ = self._run(
            FaultPlan(seed=2, crash_rate=0.3, delay_rate=0.2, delay_s=0.0)
        )
        assert first.injected != second.injected

    def test_zero_rates_are_pure_passthrough(self):
        transport, executor, results = self._run(FaultPlan(seed=5))
        assert transport.injected == []
        assert executor.stats.retries == 0
        assert results == [n * n for n in range(60)]

    def test_max_faults_caps_injection(self):
        plan = FaultPlan(seed=0, crash_rate=1.0, max_faults=3)
        transport = FaultInjectingTransport(SerialTransport(), plan)
        with DagExecutor(transport, retry_policy=FAST_RETRY) as executor:
            # The first three submissions crash (spending the cap);
            # after that everything passes through untouched.
            assert executor.map(_square, list(range(10))) == [
                n * n for n in range(10)
            ]
        assert len(transport.injected) == 3
        assert executor.stats.retries == 3


# ---------------------------------------------------------------------------
# Executor-level retry behaviour
# ---------------------------------------------------------------------------


class TestExecutorRetries:
    def test_injected_crashes_recovered_with_stats(self):
        plan = FaultPlan(seed=7, crash_rate=0.25, error_rate=0.1)
        transport = FaultInjectingTransport(SerialTransport(), plan)
        with DagExecutor(transport, retry_policy=FAST_RETRY) as executor:
            results = executor.map(_square, list(range(40)))
        assert results == [n * n for n in range(40)]
        stats = executor.stats
        assert stats.retries > 0
        assert stats.tasks == 40
        assert stats.submitted == 40 + stats.retries

    def test_retry_exhaustion_raises_the_fault(self):
        plan = FaultPlan(seed=1, crash_rate=1.0)
        transport = FaultInjectingTransport(SerialTransport(), plan)
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        with DagExecutor(transport, retry_policy=policy) as executor:
            with pytest.raises(InjectedWorkerCrash):
                executor.map(_square, [1])
        assert executor.stats.retries == 2  # attempts 2 and 3

    def test_leaf_bugs_are_never_retried(self):
        def explode(value):
            raise ValueError("leaf bug")

        with DagExecutor(SerialTransport(), retry_policy=FAST_RETRY) as executor:
            with pytest.raises(ValueError, match="leaf bug"):
                executor.map(explode, [1, 2])
        assert executor.stats.retries == 0

    def test_no_retry_policy_fails_fast(self):
        plan = FaultPlan(seed=1, crash_rate=1.0)
        transport = FaultInjectingTransport(SerialTransport(), plan)
        with DagExecutor(
            transport, retry_policy=RetryPolicy.no_retry()
        ) as executor:
            with pytest.raises(InjectedWorkerCrash):
                executor.map(_square, [1])
        assert executor.stats.retries == 0

    def test_chaos_env_arms_from_spec(self, monkeypatch):
        # max_faults=3 < max_attempts, so no leaf can ever exhaust its
        # retries however the dice land.
        monkeypatch.setenv(CHAOS_ENV, "crash=0.5,seed=9,max_faults=3")
        with DagExecutor.from_spec("serial", retry_policy=FAST_RETRY) as executor:
            assert isinstance(executor.transport, FaultInjectingTransport)
            assert executor.map(_square, list(range(30))) == [
                n * n for n in range(30)
            ]
        assert executor.transport.injected
        monkeypatch.delenv(CHAOS_ENV)
        with DagExecutor.from_spec("serial") as executor:
            assert isinstance(executor.transport, SerialTransport)

    def test_leaf_timeout_retries_then_succeeds(self, tmp_path):
        marker = tmp_path / "slow-once"

        def slow_once(value):
            if not marker.exists():
                marker.touch()
                import time

                time.sleep(1.0)
            return value * 10

        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.0, jitter=0.0, leaf_timeout_s=0.15
        )
        transport = PoolTransport("thread", max_workers=2)
        with DagExecutor(transport, retry_policy=policy) as executor:
            assert executor.map(slow_once, [7]) == [70]
        assert executor.stats.retries >= 1

    def test_leaf_timeout_exhaustion_raises(self):
        def always_slow(value):
            import time

            time.sleep(0.5)
            return value

        policy = RetryPolicy(
            max_attempts=2, base_delay_s=0.0, jitter=0.0, leaf_timeout_s=0.1
        )
        transport = PoolTransport("thread", max_workers=2)
        with DagExecutor(transport, retry_policy=policy) as executor:
            with pytest.raises(LeafTimeoutError, match="deadline"):
                executor.map(always_slow, [1])

    def test_stats_roundtrip_with_resilience_counters(self):
        stats = ExecutorStats(
            submitted=12,
            tasks=10,
            steals=1,
            queue_high_water=4,
            retries=2,
            worker_restarts=1,
            per_worker={"w0": 10},
        )
        raw = stats.to_dict()
        assert raw["retries"] == 2
        assert raw["worker_restarts"] == 1
        assert ExecutorStats.from_dict(raw) == stats
        # Legacy manifests (pre-resilience) load with zero defaults.
        legacy = {k: v for k, v in raw.items() if k not in ("retries", "worker_restarts")}
        loaded = ExecutorStats.from_dict(legacy)
        assert loaded.retries == 0 and loaded.worker_restarts == 0
        assert "2 retries" in stats.summary()
        assert "retries" not in ExecutorStats(tasks=1).summary()


# ---------------------------------------------------------------------------
# Real worker death: a process-pool worker dies mid-batch
# ---------------------------------------------------------------------------


def _die_once_leaf(item):
    """Return value*3, but hard-kill the worker process on first sight.

    The marker file makes the death a one-shot: the retried leaf (and
    every later attempt) completes normally — exactly the shape of a
    transient worker loss.
    """
    value, marker = item
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("dying\n")
        os._exit(1)  # SIGKILL-equivalent: no exception, no cleanup
    return value * 3


@dataclass(frozen=True)
class _MapCell:
    """A grid cell that fans its work out through the ambient executor."""

    profile: ExperimentProfile
    base: int
    marker: str = ""

    def run(self):
        items = [
            (self.base + i, self.marker if (i == 1 and self.marker) else None)
            for i in range(6)
        ]
        return current_executor().map(_die_once_leaf, items)


class TestWorkerDeathRecovery:
    def test_map_survives_worker_death(self, tmp_path):
        marker = str(tmp_path / "killed")
        items = [(n, marker if n == 2 else None) for n in range(8)]
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.01, jitter=0.0)
        transport = PoolTransport("process", max_workers=2)
        with DagExecutor(transport, retry_policy=policy) as executor:
            results = executor.map(_die_once_leaf, items)
        assert results == [n * 3 for n in range(8)]
        stats = executor.stats
        assert stats.retries >= 1
        assert stats.worker_restarts >= 1
        assert os.path.exists(marker)

    def test_grid_byte_identical_after_worker_death(self, tmp_path):
        profile = ExperimentProfile(
            name="tiny", search_iterations=50, sa_iterations=50, seed=0
        )
        def cells(prof, marker):
            return [
                _MapCell(prof, base=10 * i, marker=marker if i == 1 else "")
                for i in range(3)
            ]

        serial_profile = profile.with_exec_plan("dag:serial")
        reference = run_cells(
            cells(serial_profile, ""), serial_profile, label="refgrid"
        )
        marker = str(tmp_path / "killed-in-grid")
        chaos_profile = profile.with_exec_plan("dag:process").with_max_workers(2)
        recovered = run_cells(
            cells(chaos_profile, marker), chaos_profile, label="killgrid"
        )
        assert recovered == reference
        assert os.path.exists(marker)  # the worker really died


# ---------------------------------------------------------------------------
# The house invariant under chaos: byte-identical experiment reports
# ---------------------------------------------------------------------------


class TestChaosDeterminism:
    def test_table3_report_byte_identical_under_chaos(self, monkeypatch):
        profile = ExperimentProfile(
            name="tiny",
            search_iterations=150,
            sa_iterations=300,
            fig3_mappings=40,
            stop_after_feasible=2,
            seed=0,
        )
        config = RandomGraphConfig(num_tasks=10)
        applications = [("tiny", random_task_graph(config, seed=3), config.deadline_s)]
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        reference = run_table3(
            profile, core_counts=(2, 3), applications=applications
        )
        monkeypatch.setenv(
            CHAOS_ENV,
            "crash=0.05,error=0.05,delay=0.1,delay_s=0.001,seed=13,max_faults=40",
        )
        chaotic = run_table3(
            profile.with_exec_plan("dag:thread").with_max_workers(3),
            core_counts=(2, 3),
            applications=applications,
        )
        assert chaotic.format_table() == reference.format_table()
        assert chaotic.shape_checks() == reference.shape_checks()
