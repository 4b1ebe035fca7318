"""HTTP/JSON gateway: one front door for a fleet of simulation daemons.

Many submitters compete for a pool of shards.  The gateway speaks plain
HTTP/1.1 + JSON to clients (any language, ``curl``-able) and the existing
line-delimited JSON socket protocol to each daemon, adding exactly three
things a single daemon cannot provide:

* **shard routing** — each submission is routed by consistent hash of
  its spec signature (the stable identity behind the content-hash
  simulation key), so repeat keys land on the warm shard
  (:func:`repro.service.fleet.choose_shard`).  Identical specs
  therefore share a home shard and coalesce there, in the daemon;
* **health-checked failover** — a daemon that dies mid-run (connection
  lost before the terminal event) is marked down and the job is resubmitted
  to the next shard in ring order (duplicates walk the same order, so
  they still meet on one shard); because specs are idempotent
  descriptions and results are content-addressed, a retried job is
  bit-identical to a first-try run;
* **aggregation** — ``/status`` fans out to every shard and folds the
  answers into one fleet view (queue depths, worker occupancy, cache hit
  rate, retry counts).

Endpoints (all responses JSON):

``GET /healthz``
    Liveness: 200 with shard alive counts, 503 when no shard is up.
``POST /submit``
    Body ``{"spec": {...}, "client": "name"}``.  Blocks until the job is
    terminal; 200 carries the ``done`` event (summary + fingerprint
    digests + ``gateway`` routing metadata), 500 a ``failed`` event,
    429 an admission rejection (explicit backpressure, never buffering),
    502 when no shard could be reached.
``POST /drain``
    Quiesce every shard; replies once queued+running work is finished.
``POST /shutdown``
    Body ``{"drain": bool}``.  Stop every shard, then the gateway.

Admission rejections are *not* failed over: backpressure is a deliberate
signal the client must see, otherwise a full fleet would buffer without
bound at the gateway.  Only transport loss (shard death) triggers
failover.  A request whose request line or ``Content-Length`` is
malformed gets a 400, one whose body is over :data:`MAX_BODY_BYTES` a
413; the gateway then closes that connection.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import (
    AdmissionError,
    ConfigurationError,
    ServiceProtocolError,
    ServiceUnavailableError,
)
from repro.service import protocol
from repro.service.fleet import HashRing, aggregate_statuses, choose_shard
from repro.service.specs import normalize_spec, task_signature

#: Job events that end a submission stream.
TERMINAL_EVENTS = ("done", "failed")

#: Upper bound on one HTTP request body.
MAX_BODY_BYTES = protocol.MAX_LINE_BYTES

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class _RequestRejected(Exception):
    """A request the gateway answers with ``status`` and then hangs up on."""

    def __init__(self, status: int, error: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.error = error


@dataclass
class GatewayOptions:
    """Everything tunable about one gateway instance."""

    shards: Sequence[str] = ()
    host: str = "127.0.0.1"
    port: int = 0
    health_interval: float = 2.0
    connect_timeout: float = 10.0
    #: Per-job wall-clock bound on one shard conversation (ack + events).
    shard_timeout: float = 600.0
    #: A FleetManager when the gateway owns its daemons (they are stopped
    #: on /shutdown).
    fleet: object = None


@dataclass
class ShardState:
    """Gateway-side view of one daemon."""

    name: str
    address: str
    alive: bool = True
    #: Gateway-tracked jobs currently routed here (reported by ``/status``).
    inflight: int = 0
    routed: int = 0
    completed: int = 0
    failures: int = 0
    last_status: Optional[Dict[str, object]] = field(default=None, repr=False)

    def public(self) -> Dict[str, object]:
        return {
            "shard": self.name,
            "address": self.address,
            "alive": self.alive,
            "inflight": self.inflight,
            "routed": self.routed,
            "completed": self.completed,
            "failures": self.failures,
        }


class Gateway:
    """The fleet front door.  ``Gateway(options).run()`` serves until shutdown."""

    def __init__(self, options: Optional[GatewayOptions] = None, **overrides) -> None:
        options = options or GatewayOptions(**overrides)
        self.options = options
        addresses = list(options.shards)
        if not addresses and options.fleet is not None:
            addresses = options.fleet.addresses()
        if not addresses:
            raise ConfigurationError("a gateway needs at least one shard address")
        self.shards: Dict[str, ShardState] = {}
        if options.fleet is not None and not options.shards:
            for shard in options.fleet.shards():
                self.shards[shard.name] = ShardState(shard.name, shard.address)
        else:
            for index, address in enumerate(addresses):
                name = f"shard{index}"
                self.shards[name] = ShardState(name, address)
        self.ring = HashRing(self.shards)
        self.counters: Dict[str, int] = {
            "requests": 0,
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            "failovers": 0,
            "unroutable": 0,
        }
        self.bound_port: Optional[int] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at = time.monotonic()

    # -- lifecycle -------------------------------------------------------------

    def run(self) -> None:
        """Blocking entry point used by ``repro fleet serve``."""
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        await self.start()
        try:
            await self.wait_closed()
        finally:
            await self.aclose()

    async def start(self) -> None:
        self._stop_event = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_conn, self.options.host, self.options.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self._health_task = self._loop.create_task(self._health_loop())

    async def wait_closed(self) -> None:
        assert self._stop_event is not None
        await self._stop_event.wait()

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def stop_threadsafe(self) -> None:
        loop = getattr(self, "_loop", None)
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self.request_stop)

    async def aclose(self) -> None:
        self.request_stop()
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:  # pragma: no cover
                pass
            self._server = None
        if getattr(self, "_health_task", None) is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except (asyncio.CancelledError, Exception):
                pass
            self._health_task = None

    # -- shard conversations ---------------------------------------------------

    async def _open(self, address: str):
        if protocol.is_tcp_address(address):
            host, port = protocol.split_tcp_address(address)
            connect = asyncio.open_connection(
                host, port, limit=protocol.MAX_LINE_BYTES
            )
        else:
            connect = asyncio.open_unix_connection(
                address, limit=protocol.MAX_LINE_BYTES
            )
        try:
            return await asyncio.wait_for(connect, self.options.connect_timeout)
        except (OSError, asyncio.TimeoutError) as exc:
            raise ServiceUnavailableError(
                f"cannot reach daemon at {address}: {exc}"
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

    async def shard_request(
        self, address: str, message: Dict[str, object], timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """One request → one response against a single shard."""
        reader, writer = await self._open(address)
        try:
            writer.write(protocol.encode_message(message))
            try:
                await writer.drain()
            except (ConnectionError, OSError) as exc:
                raise ServiceUnavailableError(
                    f"daemon connection lost: {exc}"
                ) from None
            return await self._read_frame(
                reader, timeout if timeout is not None else self.options.shard_timeout
            )
        finally:
            await self._close_writer(writer)

    @staticmethod
    async def _close_writer(writer) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:  # pragma: no cover - teardown race
            pass

    # -- submission: routing + failover ----------------------------------------

    async def submit(
        self, spec: Dict[str, object], client: str = "gateway"
    ) -> Dict[str, object]:
        """Route one submission; returns the terminal job event.

        Raises :class:`ServiceProtocolError` (bad spec),
        :class:`AdmissionError` (backpressure — deliberately not failed
        over) or :class:`ServiceUnavailableError` (no shard reachable).
        """
        spec = normalize_spec(spec)
        signature = task_signature(spec)
        self.counters["submitted"] += 1
        tried: set = set()
        failovers = 0
        last_error: Optional[ServiceUnavailableError] = None
        while True:
            shard = choose_shard(self.ring, signature, self.shards, exclude=tried)
            if shard is None:
                self.counters["unroutable"] += 1
                raise ServiceUnavailableError(
                    f"no live shard left for job (tried {sorted(tried) or 'none'}): "
                    f"{last_error}"
                )
            tried.add(shard.name)
            shard.inflight += 1
            shard.routed += 1
            try:
                event = await self._submit_to_shard(shard, spec, client)
            except ServiceUnavailableError as exc:
                # The shard died mid-conversation: mark it down (the
                # health loop revives it) and retry on the next shard in
                # ring order.  Specs are idempotent descriptions, so the
                # retried run is bit-identical to a first-try run.
                shard.alive = False
                shard.failures += 1
                self.counters["failovers"] += 1
                failovers += 1
                last_error = exc
                continue
            except AdmissionError:
                self.counters["rejected"] += 1
                raise
            finally:
                shard.inflight -= 1
            shard.completed += 1
            self.counters["completed" if event.get("event") == "done" else "failed"] += 1
            event = dict(event)
            event["gateway"] = {"shard": shard.name, "failovers": failovers}
            return event

    async def _submit_to_shard(
        self, shard: ShardState, spec: Dict[str, object], client: str
    ) -> Dict[str, object]:
        reader, writer = await self._open(shard.address)
        try:
            writer.write(
                protocol.encode_message(
                    {"op": "submit", "spec": spec, "client": client, "wait": True}
                )
            )
            try:
                await writer.drain()
            except (ConnectionError, OSError) as exc:
                raise ServiceUnavailableError(
                    f"shard {shard.name} connection lost: {exc}"
                ) from None
            ack = await self._read_frame(reader, self.options.shard_timeout)
            if not ack.get("ok"):
                reason = str(ack.get("error", "rejected"))
                detail = str(ack.get("detail", ack))
                if reason == "protocol":
                    raise ServiceProtocolError(detail)
                raise AdmissionError(detail, reason=reason)
            event = ack
            while event.get("event") not in TERMINAL_EVENTS:
                event = await self._read_frame(reader, self.options.shard_timeout)
            return event
        finally:
            await self._close_writer(writer)

    # -- health ----------------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.options.health_interval)
            await self.check_health()

    async def check_health(self) -> Dict[str, bool]:
        """Ping every shard; flips ``alive`` both ways (down *and* revived)."""

        async def probe(shard: ShardState) -> None:
            try:
                reply = await self.shard_request(
                    shard.address, {"op": "ping"}, timeout=self.options.connect_timeout
                )
                shard.alive = bool(reply.get("ok"))
            except (ServiceUnavailableError, ServiceProtocolError):
                shard.alive = False

        await asyncio.gather(*(probe(shard) for shard in list(self.shards.values())))
        return {shard.name: shard.alive for shard in self.shards.values()}

    # -- fleet-wide operations -------------------------------------------------

    async def fleet_status(self) -> Dict[str, object]:
        """Fan ``status`` out to every shard; fold into one fleet view."""

        async def fetch(shard: ShardState) -> Optional[Dict[str, object]]:
            try:
                status = await self.shard_request(
                    shard.address, {"op": "status"}, timeout=30.0
                )
            except (ServiceUnavailableError, ServiceProtocolError) as exc:
                shard.alive = False
                shard.last_status = None
                return {"ok": False, "error": str(exc)}
            shard.alive = True
            shard.last_status = status
            return status

        states = list(self.shards.values())
        statuses = await asyncio.gather(*(fetch(shard) for shard in states))
        return {
            "ok": True,
            "op": "fleet-status",
            "gateway": {
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "http": f"{self.options.host}:{self.bound_port}",
                "counters": dict(self.counters),
                "alive": sum(1 for shard in states if shard.alive),
            },
            "totals": aggregate_statuses(statuses),
            "shards": [
                dict(shard.public(), status=status)
                for shard, status in zip(states, statuses)
            ],
        }

    async def drain_fleet(self) -> Dict[str, object]:
        """Quiesce every shard; replies once all pending work finished."""

        async def drain(shard: ShardState) -> int:
            try:
                reply = await self.shard_request(
                    shard.address, {"op": "drain"}, timeout=self.options.shard_timeout
                )
                return int(reply.get("drained") or 0)
            except (ServiceUnavailableError, ServiceProtocolError):
                shard.alive = False
                return 0

        drained = await asyncio.gather(
            *(drain(shard) for shard in list(self.shards.values()))
        )
        return {"ok": True, "op": "drain", "drained": sum(drained)}

    async def shutdown_fleet(self, drain: bool = False) -> Dict[str, object]:
        """Stop every shard (optionally draining first), then the gateway."""

        async def stop(shard: ShardState) -> None:
            try:
                await self.shard_request(
                    shard.address,
                    {"op": "shutdown", "drain": drain},
                    timeout=self.options.shard_timeout,
                )
            except (ServiceUnavailableError, ServiceProtocolError):
                pass

        await asyncio.gather(*(stop(shard) for shard in list(self.shards.values())))
        if self.options.fleet is not None:
            await asyncio.to_thread(self.options.fleet.stop_all)
        # Reply first, stop just after: the caller gets a clean response.
        self._loop.call_later(0.05, self.request_stop)
        return {"ok": True, "op": "shutdown"}

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
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            ValueError,
            OSError,
        ):
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

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, bytes]]:
        """Parse one HTTP/1.1 request; None on a cleanly closed connection.

        Raises :class:`_RequestRejected` for a request that gets an error
        reply: a malformed request line or ``Content-Length`` (400), or a
        body over :data:`MAX_BODY_BYTES` (413).
        """
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.split()
        if len(parts) < 2:
            raise _RequestRejected(400, "protocol", f"malformed request line {line!r}")
        method = parts[0].decode("latin-1").upper()
        path = parts[1].decode("latin-1").split("?", 1)[0]
        content_length = 0
        while True:
            header = await reader.readline()
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
        if path == "/healthz":
            if method != "GET":
                return 405, {"ok": False, "error": "method-not-allowed"}
            alive = sum(1 for shard in self.shards.values() if shard.alive)
            payload = {
                "ok": alive > 0,
                "alive": alive,
                "shards": len(self.shards),
            }
            return (200 if alive else 503), payload
        if path == "/status":
            if method != "GET":
                return 405, {"ok": False, "error": "method-not-allowed"}
            return 200, await self.fleet_status()
        if path == "/submit":
            if method != "POST":
                return 405, {"ok": False, "error": "method-not-allowed"}
            message = self._parse_body(body)
            spec = message.get("spec")
            if spec is None:
                raise ServiceProtocolError('submit body needs a "spec" object')
            client = str(message.get("client") or "http")
            event = await self.submit(spec, client=client)
            done = event.get("event") == "done"
            return (200 if done else 500), dict(event, ok=done)
        if path == "/drain":
            if method != "POST":
                return 405, {"ok": False, "error": "method-not-allowed"}
            return 200, await self.drain_fleet()
        if path == "/shutdown":
            if method != "POST":
                return 405, {"ok": False, "error": "method-not-allowed"}
            message = self._parse_body(body) if body else {}
            return 200, await self.shutdown_fleet(drain=bool(message.get("drain")))
        return 404, {"ok": False, "error": "not-found", "path": path}

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

    Shared by the test fixtures and the fleet benchmark harness — the
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
