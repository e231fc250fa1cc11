"""The HTTP front end: stdlib ``ThreadingHTTPServer`` over a JobManager.

Routes (all JSON unless noted)::

    POST   /v1/runs              submit {experiment|graph, profile, ...,
                                 tenant?} -> 202 queued / 200 cached
    GET    /v1/runs[?tenant=t]   list run statuses
    GET    /v1/runs/<id>         one run's status (live store manifests)
    GET    /v1/runs/<id>/report  the finished report, text/plain —
                                 byte-identical to the direct CLI run
    DELETE /v1/runs/<id>         cooperative cancel
    GET    /v1/health            queue + executor stats

Errors are structured:
``{"error": {"code", "message", "retryable", "field"?}}`` with the
status code carried by the :class:`~repro.api.ApiError` subclass (400
validation, 404 unknown run, 409 conflict, 500 store error, 503 queue
full) — the same objects every other facade consumer sees.  Retryable errors that know
their backoff (503 queue-full) additionally send a ``Retry-After``
header, which :class:`~repro.service.client.ServiceClient` honors.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro import api
from repro.service.jobs import JobManager, ServiceConfig
from repro.store import StoreIndexError

_MAX_BODY_BYTES = 8 * 1024 * 1024  # generous: serialized task graphs


class RunServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`JobManager`."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        manager: JobManager,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, ServiceHandler)
        self.manager = manager
        self.verbose = verbose

    @property
    def port(self) -> int:
        return int(self.server_address[1])


class ServiceHandler(BaseHTTPRequestHandler):
    """Dispatch requests onto the facade through the job manager."""

    server: RunServiceServer
    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        document: Mapping[str, Any],
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        body = (json.dumps(document, indent=2, sort_keys=True) + "\n").encode(
            "utf-8"
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, error: api.ApiError) -> None:
        headers: Dict[str, str] = {}
        retry_after = getattr(error, "retry_after_s", None)
        if retry_after is not None:
            # Whole seconds per RFC 9110, rounded up so clients never
            # come back early.
            headers["Retry-After"] = str(max(1, int(-(-retry_after // 1))))
        self._send_json(
            error.http_status, {"error": error.to_dict()}, extra_headers=headers
        )

    def _handle(self, method) -> None:
        """Run one route handler; map every failure to a structured body.

        :class:`~repro.api.ApiError` carries its own status; a store
        whose index cannot answer is a non-retryable 500 naming why
        (:class:`~repro.api.StoreError`); anything else is a server
        bug surfaced as a retryable 500 (the request may succeed on a
        healthy worker / after a restart) instead of a hung or
        half-written response.
        """
        try:
            method()
        except api.ApiError as error:
            self._send_error(error)
        except StoreIndexError as exc:
            self._send_error(api.StoreError(str(exc)))
        except Exception as exc:  # pragma: no cover - defensive backstop
            error = api.ApiError(f"internal error: {type(exc).__name__}")
            error.code = "internal-error"
            error.http_status = 500
            error.retryable = True
            try:
                self._send_error(error)
            except OSError:
                pass  # client is gone; nothing to tell it

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            raise api.ValidationError(
                f"request body too large ({length} bytes)"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise api.ValidationError("request body must be a JSON object")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise api.ValidationError(f"malformed JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise api.ValidationError("request body must be a JSON object")
        return payload

    def _route(self) -> Tuple[str, Optional[str], Dict[str, str]]:
        """(collection, run id or None, query) for ``/v1/...`` paths."""
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
            if values
        }
        if not parts or parts[0] != "v1":
            raise api.UnknownRunError(f"no such endpoint: {split.path}")
        return "/".join(parts[1:]), None, query

    # -- methods ------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle(self._post)

    def _post(self) -> None:
        route, _, _ = self._route()
        if route != "runs":
            raise api.UnknownRunError(f"no such endpoint: {self.path}")
        payload = self._read_body()
        tenant = str(payload.pop("tenant", "default"))
        submission = self.server.manager.submit(payload, tenant=tenant)
        status = 200 if submission.cached else 202
        self._send_json(status, submission.to_dict())

    def do_GET(self) -> None:  # noqa: N802
        self._handle(self._get)

    def _get(self) -> None:
        route, _, query = self._route()
        if route == "health":
            self._send_json(
                200, {"status": "ok", **self.server.manager.stats()}
            )
            return
        if route == "runs":
            tenant = query.get("tenant")
            statuses = self.server.manager.runs(tenant=tenant)
            self._send_json(
                200, {"runs": [status.to_dict() for status in statuses]}
            )
            return
        parts = route.split("/")
        if len(parts) == 2 and parts[0] == "runs":
            status = self.server.manager.status(parts[1])
            self._send_json(200, status.to_dict())
            return
        if len(parts) == 3 and parts[0] == "runs" and parts[2] == "report":
            self._send_text(200, self.server.manager.report(parts[1]))
            return
        raise api.UnknownRunError(f"no such endpoint: {self.path}")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle(self._delete)

    def _delete(self) -> None:
        route, _, _ = self._route()
        parts = route.split("/")
        if len(parts) == 2 and parts[0] == "runs":
            status = self.server.manager.cancel(parts[1])
            self._send_json(200, status.to_dict())
            return
        raise api.UnknownRunError(f"no such endpoint: {self.path}")


def make_server(
    store_root: Union[str, "ServiceConfig"],
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    **config_kwargs: Any,
) -> RunServiceServer:
    """A ready-to-serve server with its own started :class:`JobManager`.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.port``.  The caller owns shutdown: ``server.shutdown()``
    then ``server.manager.close()``.
    """
    if isinstance(store_root, ServiceConfig):
        config = store_root
    else:
        config = ServiceConfig(store_root=str(store_root), **config_kwargs)
    manager = JobManager(config).start()
    try:
        return RunServiceServer((host, port), manager, verbose=verbose)
    except BaseException:
        manager.close()
        raise


def serve(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8321,
    verbose: bool = True,
    **config_kwargs: Any,
) -> int:
    """Run the service until interrupted (the ``repro-seu serve`` path).

    SIGTERM (and SIGINT) triggers a graceful drain: the listener stops
    accepting, in-flight runs finish (their cells stream to the store
    either way), queued runs stay ``queued`` on disk, and the next
    ``serve`` over the same store re-attaches and finishes them.
    """
    import signal
    import sys
    import threading

    server = make_server(
        store_root, host=host, port=port, verbose=verbose, **config_kwargs
    )
    print(
        f"repro-seu service listening on http://{host}:{server.port} "
        f"(store: {store_root})",
        file=sys.stderr,
        flush=True,
    )
    draining = threading.Event()

    def _drain(signum: int, frame: Any) -> None:
        if draining.is_set():
            return
        draining.set()
        print(
            f"[service] caught signal {signum}; draining "
            "(in-flight runs finish, queued runs persist)",
            file=sys.stderr,
            flush=True,
        )
        # shutdown() blocks until serve_forever() exits, so it must not
        # run on the thread that is inside serve_forever(); hand it off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous_handlers = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous_handlers[signum] = signal.signal(signum, _drain)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        draining.set()
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        server.shutdown()
        server.server_close()
        # A drain keeps queued work on disk for the next boot; a plain
        # exit (tests calling serve() programmatically) still executes
        # the backlog as before.
        server.manager.close(execute_queued=not draining.is_set())
        if draining.is_set():
            print("[service] drained; queued runs persisted", file=sys.stderr)
    return 0
