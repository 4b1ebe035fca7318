"""HTTP/JSON gateway: the HTTP harness of the ledger's ``serve_mixed`` workload.

A library only (no command starts it): the gateway speaks plain
HTTP/1.1 + JSON to clients and the daemon's line-delimited JSON socket
protocol to the one daemon behind it.  It adds HTTP and nothing else:
admission, coalescing, retries and the result cache all stay in the
daemon, so a submission through the gateway gets exactly the reply a
socket client would.

Endpoints (all responses JSON):

``GET /status``
    The gateway's own block (uptime, listen address, counters, whether
    the daemon answered the last conversation) plus the daemon's
    ``status`` payload.
``POST /submit``
    Body ``{"spec": {...}, "client": "name"}``.  Blocks until the job is
    terminal; 200 carries the ``done`` event (summary + fingerprint
    digests), 500 a ``failed`` event, 400 a spec the daemon refused, 429
    an admission rejection (explicit backpressure, never buffering), 502
    when the daemon cannot be reached.

A request whose request line or ``Content-Length`` is malformed, or
whose request line or a header is over :data:`MAX_HEAD_LINE_BYTES`, gets
a 400; one whose body is over :data:`MAX_BODY_BYTES` a 413.  The gateway
then closes that connection.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.errors import (
    AdmissionError,
    ConfigurationError,
    ServiceProtocolError,
    ServiceUnavailableError,
)
from repro.service import protocol

#: Job events that end a submission stream.
TERMINAL_EVENTS = ("done", "failed")

#: Upper bound on one HTTP request body.
MAX_BODY_BYTES = protocol.MAX_LINE_BYTES

#: Upper bound on the request line and on each header line.
MAX_HEAD_LINE_BYTES = 64 * 1024

#: The gateway listens on an ephemeral loopback port (``bound_port``).
HOST = "127.0.0.1"

#: Bound on reaching the daemon, and on each daemon frame of one job.
CONNECT_TIMEOUT_S = 10.0
DAEMON_TIMEOUT_S = 600.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
}


class _RequestRejected(Exception):
    """A request the gateway answers with ``status`` and then hangs up on."""

    def __init__(self, status: int, error: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.error = error


@dataclass
class GatewayOptions:
    """The daemon one gateway instance fronts."""

    #: The daemon's socket address; taken from ``fleet`` when empty.
    daemon: str = ""
    #: A FleetManager whose daemon the gateway fronts.
    fleet: object = None
    #: Unused; ``bench/wl_serve.py`` still passes it.
    health_interval: float = 0.0


class Gateway:
    """The HTTP front door.  ``serve_in_thread(Gateway(options))`` serves it."""

    def __init__(self, options: GatewayOptions) -> None:
        address = options.daemon
        if not address and options.fleet is not None:
            address = next(iter(options.fleet.addresses()), "")
        if not address:
            raise ConfigurationError("a gateway needs a daemon address")
        self.address = address
        #: Whether the daemon answered the last status or submit.
        self.alive = True
        self.counters: Dict[str, int] = {
            "requests": 0,
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
        }
        self.bound_port: Optional[int] = None
        self._started_at = time.monotonic()

    # -- lifecycle -------------------------------------------------------------

    def run(self) -> None:
        """Serve until :meth:`stop_threadsafe` (see :func:`serve_in_thread`)."""
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._stop_event = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            self._handle_conn, HOST, 0, limit=MAX_HEAD_LINE_BYTES
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover
                pass
            # Let the handlers of clients that hung up finish closing:
            # asyncio.run cancels what is left, and a cancelled handler is
            # logged as an unhandled error.
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            if handlers:
                await asyncio.wait(handlers, timeout=1.0)

    def stop_threadsafe(self) -> None:
        loop = getattr(self, "_loop", None)
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._stop_event.set)

    # -- daemon conversations --------------------------------------------------

    async def _open(self):
        if protocol.is_tcp_address(self.address):
            host, port = protocol.split_tcp_address(self.address)
            connect = asyncio.open_connection(
                host, port, limit=protocol.MAX_LINE_BYTES
            )
        else:
            connect = asyncio.open_unix_connection(
                self.address, limit=protocol.MAX_LINE_BYTES
            )
        try:
            return await asyncio.wait_for(connect, CONNECT_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError) as exc:
            raise ServiceUnavailableError(
                f"cannot reach daemon at {self.address}: {exc}"
            ) from None

    async def _read_frame(self, reader, timeout: float) -> Dict[str, object]:
        try:
            line = await asyncio.wait_for(reader.readline(), timeout)
        except asyncio.TimeoutError:
            raise ServiceUnavailableError(
                f"daemon did not respond within {timeout:.1f}s"
            ) from None
        except (OSError, ValueError) as exc:
            raise ServiceUnavailableError(f"daemon connection lost: {exc}") from None
        if not line:
            raise ServiceUnavailableError("daemon closed the connection")
        return protocol.decode_line(line)

    async def _converse(self, message: Dict[str, object], read_reply) -> Dict[str, object]:
        """Send ``message`` to the daemon; ``read_reply(reader)`` reads the
        answer.  Records whether the daemon could be reached."""
        try:
            reader, writer = await self._open()
            try:
                writer.write(protocol.encode_message(message))
                try:
                    await writer.drain()
                except (ConnectionError, OSError) as exc:
                    raise ServiceUnavailableError(
                        f"daemon connection lost: {exc}"
                    ) from None
                reply = await read_reply(reader)
            finally:
                await self._close_writer(writer)
        except ServiceUnavailableError:
            self.alive = False
            raise
        self.alive = True
        return reply

    @staticmethod
    async def _close_writer(writer) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:  # pragma: no cover - teardown race
            pass

    # -- submission ------------------------------------------------------------

    async def submit(
        self, spec: Dict[str, object], client: str = "gateway"
    ) -> Dict[str, object]:
        """Forward one submission; returns the terminal job event.

        Raises :class:`ServiceProtocolError` (the daemon refused the
        spec), :class:`AdmissionError` (backpressure) or
        :class:`ServiceUnavailableError` (the daemon cannot be reached).
        """
        self.counters["submitted"] += 1

        async def read_events(reader) -> Dict[str, object]:
            ack = await self._read_frame(reader, DAEMON_TIMEOUT_S)
            if not ack.get("ok"):
                reason = str(ack.get("error", "rejected"))
                detail = str(ack.get("detail", ack))
                if reason == "protocol":
                    raise ServiceProtocolError(detail)
                raise AdmissionError(detail, reason=reason)
            event = ack
            while event.get("event") not in TERMINAL_EVENTS:
                event = await self._read_frame(reader, DAEMON_TIMEOUT_S)
            return event

        message = {"op": "submit", "spec": spec, "client": client, "wait": True}
        try:
            event = await self._converse(message, read_events)
        except AdmissionError:
            self.counters["rejected"] += 1
            raise
        self.counters["completed" if event.get("event") == "done" else "failed"] += 1
        return event

    # -- status ---------------------------------------------------------------

    async def status(self) -> Dict[str, object]:
        """The gateway's own block plus the daemon's ``status`` payload."""
        try:
            daemon = await self._converse(
                {"op": "status"}, lambda reader: self._read_frame(reader, 30.0)
            )
        except (ServiceUnavailableError, ServiceProtocolError) as exc:
            daemon = {"ok": False, "error": str(exc)}
        return {
            "ok": True,
            "op": "fleet-status",
            "gateway": {
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "http": f"{HOST}:{self.bound_port}",
                "counters": dict(self.counters),
                "alive": self.alive,
            },
            "daemon": daemon,
        }

    # -- HTTP layer ------------------------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _RequestRejected as exc:
                    payload = {"ok": False, "error": exc.error, "detail": str(exc)}
                    await self._respond(writer, exc.status, payload, keep_alive=False)
                    break
                if request is None:
                    break
                method, path, body = request
                status, payload = await self._dispatch(method, path, body)
                await self._respond(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            await self._close_writer(writer)

    @staticmethod
    async def _respond(writer, status: int, payload, keep_alive: bool = True) -> None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    @staticmethod
    async def _read_line(reader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # the stream's limit: no newline within it
            raise _RequestRejected(
                400,
                "protocol",
                f"request line or header over {MAX_HEAD_LINE_BYTES} bytes",
            ) from None

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, bytes]]:
        """Parse one HTTP/1.1 request; None on a cleanly closed connection.

        Raises :class:`_RequestRejected` for a request that gets an error
        reply: a malformed request line or ``Content-Length``, or a line
        over :data:`MAX_HEAD_LINE_BYTES` (400), or a body over
        :data:`MAX_BODY_BYTES` (413).
        """
        line = await self._read_line(reader)
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.split()
        if len(parts) < 2:
            raise _RequestRejected(400, "protocol", f"malformed request line {line!r}")
        method = parts[0].decode("latin-1").upper()
        path = parts[1].decode("latin-1").split("?", 1)[0]
        content_length = 0
        while True:
            header = await self._read_line(reader)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                value = value.strip()
                if not (value.isascii() and value.isdigit()):
                    raise _RequestRejected(
                        400, "protocol", f"bad Content-Length {value!r}"
                    )
                content_length = int(value)
        if content_length > MAX_BODY_BYTES:
            raise _RequestRejected(
                413,
                "payload-too-large",
                f"request body of {content_length} bytes is over {MAX_BODY_BYTES}",
            )
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, body

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        self.counters["requests"] += 1
        try:
            return await self._route(method, path, body)
        except ServiceProtocolError as exc:
            return 400, {"ok": False, "error": "protocol", "detail": str(exc)}
        except AdmissionError as exc:
            return 429, {
                "ok": False,
                "error": exc.reason,
                "detail": str(exc),
                "retry_after_ms": 250,
            }
        except ServiceUnavailableError as exc:
            return 502, {"ok": False, "error": "unavailable", "detail": str(exc)}

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        expected = {"/status": "GET", "/submit": "POST"}.get(path)
        if expected is None:
            return 404, {"ok": False, "error": "not-found", "path": path}
        if method != expected:
            return 405, {"ok": False, "error": "method-not-allowed"}
        if path == "/status":
            return 200, await self.status()
        message = self._parse_body(body)
        spec = message.get("spec")
        if spec is None:
            raise ServiceProtocolError('submit body needs a "spec" object')
        client = str(message.get("client") or "http")
        event = await self.submit(spec, client=client)
        done = event.get("event") == "done"
        return (200 if done else 500), dict(event, ok=done)

    @staticmethod
    def _parse_body(body: bytes) -> Dict[str, object]:
        if not body:
            return {}
        try:
            message = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceProtocolError(f"undecodable request body: {exc}") from None
        if not isinstance(message, dict):
            raise ServiceProtocolError(
                f"request body must be a JSON object, got {type(message).__name__}"
            )
        return message


def serve_in_thread(gateway: Gateway, deadline_s: float = 15.0):
    """Run ``gateway`` on a daemon thread; returns once the port is bound.

    Shared by the test fixtures and the benchmark harnesses — the
    gateway's asyncio loop lives on the thread, the caller keeps the
    handle for ``stop_threadsafe``.
    """
    import threading

    thread = threading.Thread(target=gateway.run, daemon=True)
    thread.start()
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if gateway.bound_port is not None:
            return thread
        if not thread.is_alive():
            break
        time.sleep(0.01)
    raise ServiceUnavailableError("gateway did not bind within the deadline")
