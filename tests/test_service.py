"""The HTTP job service: queueing, dedup, structured errors, byte-identity.

Exercises the real stack — JobManager worker threads, the stdlib
``ThreadingHTTPServer`` on an ephemeral port, and the ``urllib``
client — against smoke-profile runs, so every test is an end-to-end
submit → poll → fetch round trip.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.exec import RetryPolicy
from repro.experiments.common import ExperimentProfile
from repro.experiments.runner import run_experiment
from repro.service import (
    JobManager,
    QueueFullError,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    make_server,
)
from repro.store.index import read_run_record

FIG3 = {"experiment": "fig3", "profile": "smoke"}


def _manager(tmp_path, **kwargs):
    kwargs.setdefault("transport", "serial")
    kwargs.setdefault("default_exec_plan", "dag")
    return JobManager(ServiceConfig(store_root=str(tmp_path / "svc"), **kwargs))


# ---------------------------------------------------------------------------
# JobManager: the queue/worker layer, no HTTP.
# ---------------------------------------------------------------------------


class TestJobManager:
    def test_submit_executes_and_completes(self, tmp_path):
        with _manager(tmp_path) as manager:
            submission = manager.submit(FIG3, tenant="alice")
            assert submission.cached is False
            assert manager.wait_idle(timeout=120)
            status = manager.status(submission.run_id)
            assert status.state == "complete"
            _, direct = run_experiment("fig3", ExperimentProfile.smoke())
            assert manager.report(submission.run_id) == direct + "\n"

    def test_duplicate_submission_served_from_cache(self, tmp_path, monkeypatch):
        with _manager(tmp_path) as manager:
            first = manager.submit(FIG3, tenant="alice")
            assert manager.wait_idle(timeout=120)

            def boom(*args, **kwargs):
                raise AssertionError("cached submission must not execute")

            monkeypatch.setattr(api, "run_submitted", boom)
            second = manager.submit(FIG3, tenant="bob")
            assert second.cached is True
            assert second.run_id == first.run_id
            status = manager.status(first.run_id)
            assert set(status.tenants) == {"alice", "bob"}

    def test_in_flight_submission_joined_not_duplicated(self, tmp_path, monkeypatch):
        release = threading.Event()
        real = api.run_submitted

        def slow(store_root, run_id, exec_plan=None):
            release.wait(timeout=60)
            return real(store_root, run_id, exec_plan=exec_plan)

        monkeypatch.setattr(api, "run_submitted", slow)
        with _manager(tmp_path, max_concurrency=1) as manager:
            first = manager.submit(FIG3, tenant="alice")
            joined = manager.submit(FIG3, tenant="bob")
            assert joined.run_id == first.run_id
            assert joined.cached is False
            assert joined.scheduled is False  # no second queue entry
            release.set()
            assert manager.wait_idle(timeout=120)
            assert manager.status(first.run_id).state == "complete"

    def test_concurrency_limit_queues_rather_than_rejects(
        self, tmp_path, monkeypatch
    ):
        gate = threading.Event()
        started = threading.Event()
        real = api.run_submitted

        def gated(store_root, run_id, exec_plan=None):
            started.set()
            gate.wait(timeout=60)
            return real(store_root, run_id, exec_plan=exec_plan)

        monkeypatch.setattr(api, "run_submitted", gated)
        with _manager(tmp_path, max_concurrency=1) as manager:
            first = manager.submit(FIG3)
            assert started.wait(timeout=30)
            # A different run beyond the worker count queues quietly.
            second = manager.submit({"experiment": "fig3", "profile": "smoke",
                                     "seed": 1})
            assert second.run_id != first.run_id
            states = manager.job_states()
            assert states[first.run_id] == "running"
            assert states[second.run_id] == "queued"
            gate.set()
            assert manager.wait_idle(timeout=240)
            assert manager.status(first.run_id).state == "complete"
            assert manager.status(second.run_id).state == "complete"

    def test_full_queue_refuses_with_503(self, tmp_path, monkeypatch):
        gate = threading.Event()
        started = threading.Event()
        real = api.run_submitted

        def gated(store_root, run_id, exec_plan=None):
            started.set()
            gate.wait(timeout=60)
            return real(store_root, run_id, exec_plan=exec_plan)

        monkeypatch.setattr(api, "run_submitted", gated)
        with _manager(tmp_path, max_concurrency=1, queue_size=1) as manager:
            manager.submit(FIG3)
            assert started.wait(timeout=30)
            # Worker busy; these two race for the single queue slot.
            submissions = []
            error = None
            for seed in (1, 2, 3):
                try:
                    submissions.append(
                        manager.submit(
                            {"experiment": "fig3", "profile": "smoke",
                             "seed": seed}
                        )
                    )
                except QueueFullError as exc:
                    error = exc
            assert error is not None
            assert error.http_status == 503
            assert error.to_dict()["code"] == "queue-full"
            gate.set()
            manager.wait_idle(timeout=240)

    def test_cancel_queued_job(self, tmp_path, monkeypatch):
        gate = threading.Event()
        started = threading.Event()
        real = api.run_submitted

        def gated(store_root, run_id, exec_plan=None):
            started.set()
            gate.wait(timeout=60)
            return real(store_root, run_id, exec_plan=exec_plan)

        monkeypatch.setattr(api, "run_submitted", gated)
        with _manager(tmp_path, max_concurrency=1) as manager:
            manager.submit(FIG3)
            assert started.wait(timeout=30)
            queued = manager.submit(
                {"experiment": "fig3", "profile": "smoke", "seed": 9}
            )
            cancelled = manager.cancel(queued.run_id)
            assert cancelled.state == "cancelled"
            gate.set()
            assert manager.wait_idle(timeout=240)
            # The cancelled run was skipped at dispatch, not executed.
            assert manager.status(queued.run_id).state == "cancelled"
            with pytest.raises(api.RunConflictError):
                manager.report(queued.run_id)

    def test_submit_after_close_rejected(self, tmp_path):
        manager = _manager(tmp_path).start()
        manager.close()
        with pytest.raises(RuntimeError, match="closed"):
            manager.submit(FIG3)

    def test_stats_shape(self, tmp_path):
        with _manager(tmp_path) as manager:
            stats = manager.stats()
            assert stats["queued"] == 0
            assert stats["running"] == 0
            assert stats["max_concurrency"] == 2
            assert stats["executor"] is not None


# ---------------------------------------------------------------------------
# The HTTP stack: server + client on an ephemeral port.
# ---------------------------------------------------------------------------


@pytest.fixture()
def service(tmp_path):
    server = make_server(
        ServiceConfig(
            store_root=str(tmp_path / "svc"),
            max_concurrency=2,
            transport="serial",
        )
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.port}", timeout=120.0)
    try:
        yield client, server
    finally:
        server.shutdown()
        server.server_close()
        server.manager.close()


class TestHttpService:
    def test_submit_poll_fetch_round_trip(self, service):
        client, _server = service
        submission = client.submit_experiment(
            "fig3", profile="smoke", tenant="alice"
        )
        assert submission["cached"] is False
        status = client.wait(submission["run_id"], timeout=240)
        assert status["state"] == "complete"
        assert status["cells"]["failed"] == 0
        report = client.report(submission["run_id"])
        _, direct = run_experiment("fig3", ExperimentProfile.smoke())
        assert report == direct + "\n"

    def test_duplicate_submission_cached_across_tenants(self, service):
        client, _server = service
        first = client.submit_experiment("fig3", profile="smoke", tenant="a")
        client.wait(first["run_id"], timeout=240)
        second = client.submit_experiment("fig3", profile="smoke", tenant="b")
        assert second["cached"] is True
        assert second["run_id"] == first["run_id"]
        runs = client.runs()
        assert len(runs) == 1
        assert set(runs[0]["tenants"]) == {"a", "b"}
        assert client.runs(tenant="a") and client.runs(tenant="zzz") == []

    def test_invalid_submission_structured_400(self, service):
        client, _server = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit_experiment("fig99", profile="smoke")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-request"
        assert excinfo.value.field == "experiment"
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"experiment": "fig3", "profile": "enormous"})
        assert excinfo.value.status == 400
        assert excinfo.value.field == "profile"

    def test_unknown_run_structured_404(self, service):
        client, _server = service
        for call in (client.status, client.report, client.cancel):
            with pytest.raises(ServiceClientError) as excinfo:
                call("missing-000000000000")
            assert excinfo.value.status == 404
            assert excinfo.value.code == "unknown-run"

    def test_store_error_structured_500(self, service):
        client, server = service
        runs = server.manager.store_root / "runs"
        runs.mkdir(exist_ok=True)
        (runs / ".sharded").touch()
        with pytest.raises(ServiceClientError) as excinfo:
            client.runs()
        assert excinfo.value.status == 500
        assert excinfo.value.code == "store-error"
        assert "runs/<run id>" in str(excinfo.value)

    def test_unknown_endpoint_404(self, service):
        client, _server = service
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/v2/runs")
        assert excinfo.value.status == 404

    def test_malformed_body_400(self, service):
        client, _server = service
        import urllib.request

        request = urllib.request.Request(
            client.base_url + "/v1/runs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_report_before_completion_409(self, service, monkeypatch):
        client, server = service
        gate = threading.Event()
        started = threading.Event()
        real = api.run_submitted

        def gated(store_root, run_id, exec_plan=None):
            started.set()
            gate.wait(timeout=60)
            return real(store_root, run_id, exec_plan=exec_plan)

        monkeypatch.setattr(api, "run_submitted", gated)
        submission = client.submit_experiment("fig3", profile="smoke")
        assert started.wait(timeout=30)
        with pytest.raises(ServiceClientError) as excinfo:
            client.report(submission["run_id"])
        assert excinfo.value.status == 409
        assert excinfo.value.code == "run-conflict"
        gate.set()
        client.wait(submission["run_id"], timeout=240)

    def test_health_endpoint(self, service):
        client, _server = service
        health = client.health()
        assert health["status"] == "ok"
        assert health["max_concurrency"] == 2
        assert "executor" in health

# ---------------------------------------------------------------------------
# Fault tolerance: orphan detection, supervisor re-attach, graceful drain.
# ---------------------------------------------------------------------------


def _dead_pid():
    """A pid guaranteed to be dead: a child we spawned and reaped."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def _orphan_record(store_root, run_id, state="running"):
    """Rewrite a run record as if its owning server process died."""
    run_dir = api._run_directory(store_root, run_id)
    record = read_run_record(run_dir)
    assert record is not None
    record["state"] = state
    record["owner"] = {
        "pid": _dead_pid(),
        "host": socket.gethostname(),
        "attached_at": 0.0,
    }
    api._write_run_record(run_dir, record)


class TestFaultTolerance:
    def test_orphaned_running_run_reports_interrupted(self, tmp_path):
        store = tmp_path / "svc"
        submission = api.submit_run(FIG3, store, wait=False)
        _orphan_record(store, submission.run_id, state="running")
        status = api.run_status(store, submission.run_id)
        assert status.state == api.INTERRUPTED_STATE
        assert [s.state for s in api.list_runs(store)] == ["interrupted"]
        # Derived, never written: the on-disk record still says running.
        record = read_run_record(api._run_directory(store, submission.run_id))
        assert record["state"] == "running"

    def test_live_owner_is_not_interrupted(self, tmp_path):
        store = tmp_path / "svc"
        submission = api.submit_run(FIG3, store, wait=False)
        run_dir = api._run_directory(store, submission.run_id)
        record = read_run_record(run_dir)
        record["state"] = "running"  # owner: this process, alive
        api._write_run_record(run_dir, record)
        assert api.run_status(store, submission.run_id).state == "running"

    def test_submit_requeues_an_orphaned_run(self, tmp_path):
        store = tmp_path / "svc"
        first = api.submit_run(FIG3, store, wait=False)
        _orphan_record(store, first.run_id, state="running")
        again = api.submit_run(FIG3, store, wait=False)
        assert again.run_id == first.run_id
        assert again.scheduled is True  # requeued under this owner, not joined
        record = read_run_record(api._run_directory(store, first.run_id))
        assert record["state"] == "queued"
        assert record["owner"]["pid"] == os.getpid()

    def test_manager_start_reattaches_and_finishes_orphans(self, tmp_path):
        store = tmp_path / "svc"
        submission = api.submit_run(FIG3, store, wait=False)
        _orphan_record(store, submission.run_id, state="running")
        assert api.run_status(store, submission.run_id).state == "interrupted"
        with _manager(tmp_path) as manager:
            assert manager.wait_idle(timeout=240)
            assert manager.status(submission.run_id).state == "complete"
            _, direct = run_experiment("fig3", ExperimentProfile.smoke())
            assert manager.report(submission.run_id) == direct + "\n"
        # Nothing left to adopt once the run completed.
        assert api.reattach_pending(store) == []

    def test_resume_orphans_off_leaves_records_alone(self, tmp_path):
        store = tmp_path / "svc"
        submission = api.submit_run(FIG3, store, wait=False)
        _orphan_record(store, submission.run_id, state="queued")
        with _manager(tmp_path, resume_orphans=False) as manager:
            assert manager.wait_idle(timeout=30)
            assert manager.job_states() == {}
        record = read_run_record(api._run_directory(store, submission.run_id))
        assert record["state"] == "queued"

    def test_graceful_drain_persists_queued_backlog(self, tmp_path, monkeypatch):
        gate = threading.Event()
        started = threading.Event()
        executed = []
        real = api.run_submitted

        def gated(store_root, run_id, exec_plan=None):
            executed.append(run_id)
            started.set()
            gate.wait(timeout=60)
            return real(store_root, run_id, exec_plan=exec_plan)

        monkeypatch.setattr(api, "run_submitted", gated)
        manager = _manager(tmp_path, max_concurrency=1).start()
        first = manager.submit(FIG3)
        assert started.wait(timeout=30)
        second = manager.submit(
            {"experiment": "fig3", "profile": "smoke", "seed": 1}
        )
        # Begin the drain while the first run is still in flight, then
        # release it: close() flags skip-queued before the worker can
        # pop the backlog.
        closer = threading.Thread(
            target=lambda: manager.close(execute_queued=False)
        )
        closer.start()
        deadline = time.monotonic() + 10
        while not manager._closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert manager._closed
        gate.set()
        closer.join(timeout=240)
        assert not closer.is_alive()
        # The in-flight run finished; the queued one was skipped and its
        # record persists as queued for the next boot.
        assert executed == [first.run_id]
        assert manager.status(first.run_id).state == "complete"
        record = read_run_record(
            api._run_directory(tmp_path / "svc", second.run_id)
        )
        assert record["state"] == "queued"
        # "Next boot": doctor the owner to a dead pid (in production the
        # drained server process is gone) and a fresh manager finishes it.
        _orphan_record(tmp_path / "svc", second.run_id, state="queued")
        with _manager(tmp_path) as fresh:
            assert fresh.wait_idle(timeout=240)
            assert fresh.status(second.run_id).state == "complete"

    def test_queue_full_503_sends_retry_after_header(self, tmp_path, monkeypatch):
        gate = threading.Event()
        started = threading.Event()
        real = api.run_submitted

        def gated(store_root, run_id, exec_plan=None):
            started.set()
            gate.wait(timeout=60)
            return real(store_root, run_id, exec_plan=exec_plan)

        monkeypatch.setattr(api, "run_submitted", gated)
        server = make_server(
            ServiceConfig(
                store_root=str(tmp_path / "svc"),
                max_concurrency=1,
                queue_size=1,
                transport="serial",
                retry_after_s=2.0,
            )
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            # Raw urllib: ServiceClient would retry the 503 away.
            def post(seed):
                body = json.dumps(
                    {"experiment": "fig3", "profile": "smoke", "seed": seed}
                ).encode("utf-8")
                request = urllib.request.Request(
                    f"http://127.0.0.1:{server.port}/v1/runs",
                    data=body,
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                urllib.request.urlopen(request, timeout=30).read()

            post(0)
            assert started.wait(timeout=30)  # worker busy on run 0
            post(1)  # takes the single queue slot
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(2)
            error = excinfo.value
            assert error.code == 503
            assert error.headers["Retry-After"] == "2"
            payload = json.loads(error.read().decode("utf-8"))["error"]
            assert payload["code"] == "queue-full"
            assert payload["retryable"] is True
        finally:
            gate.set()
            server.shutdown()
            server.server_close()
            server.manager.close()


# ---------------------------------------------------------------------------
# Client-side retries, against a scripted stub server.
# ---------------------------------------------------------------------------


def _scripted_server(script):
    """An HTTP server answering GETs from ``script``; repeats the last entry.

    Each entry is ``(status, extra headers, body bytes)``; ``calls``
    records the request paths, so tests can count attempts.
    """
    from http.server import BaseHTTPRequestHandler, HTTPServer

    calls = []

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            status, headers, body = script[min(len(calls), len(script) - 1)]
            calls.append(self.path)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, calls


_BUSY = json.dumps(
    {"error": {"code": "queue-full", "message": "busy", "retryable": True}}
).encode("utf-8")
_OK = json.dumps({"status": "ok"}).encode("utf-8")
_GONE = json.dumps(
    {"error": {"code": "unknown-run", "message": "nope", "retryable": False}}
).encode("utf-8")


class TestClientRetries:
    def _client(self, server, attempts=4):
        return ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            timeout=10.0,
            retry=RetryPolicy(
                max_attempts=attempts, base_delay_s=0.01, jitter=0.0
            ),
        )

    def test_retries_retryable_503_until_success(self):
        server, calls = _scripted_server(
            [
                (503, {"Retry-After": "0"}, _BUSY),
                (503, {"Retry-After": "0"}, _BUSY),
                (200, {}, _OK),
            ]
        )
        try:
            assert self._client(server).health() == {"status": "ok"}
            assert len(calls) == 3
        finally:
            server.shutdown()

    def test_gives_up_after_max_attempts(self):
        server, calls = _scripted_server([(503, {"Retry-After": "0"}, _BUSY)])
        try:
            with pytest.raises(ServiceClientError) as excinfo:
                self._client(server, attempts=2).health()
            assert excinfo.value.status == 503
            assert excinfo.value.retryable is True
            assert len(calls) == 2
        finally:
            server.shutdown()

    def test_4xx_never_retried(self):
        server, calls = _scripted_server([(404, {}, _GONE)])
        try:
            with pytest.raises(ServiceClientError) as excinfo:
                self._client(server).status("missing-000000000000")
            assert excinfo.value.status == 404
            assert excinfo.value.retryable is False
            assert len(calls) == 1
        finally:
            server.shutdown()

    def test_connection_errors_retried_then_raised(self):
        # A port with no listener: every attempt fails to connect.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(
            f"http://127.0.0.1:{port}",
            timeout=5.0,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.01, jitter=0.0),
        )
        with pytest.raises(OSError):
            client.health()

    def test_wait_treats_interrupted_as_transient(self):
        # A run interrupted by a server crash completes after re-attach;
        # waiters must poll through the interruption, not give up.
        interrupted = json.dumps({"run_id": "r", "state": "interrupted"}).encode()
        complete = json.dumps({"run_id": "r", "state": "complete"}).encode()
        server, calls = _scripted_server(
            [(200, {}, interrupted), (200, {}, complete)]
        )
        try:
            status = self._client(server).wait("r", timeout=30, poll_interval=0.01)
            assert status["state"] == "complete"
            assert len(calls) == 2
        finally:
            server.shutdown()

    def test_retryable_defaults_follow_status_class(self):
        assert ServiceClientError(500, "internal-error", "boom").retryable is True
        assert ServiceClientError(404, "unknown-run", "gone").retryable is False
        explicit = ServiceClientError(503, "queue-full", "x", retryable=False)
        assert explicit.retryable is False
