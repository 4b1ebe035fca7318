"""Blocking client for the simulation daemon.

Deliberately stdlib-``socket`` only (no asyncio): the CLI, tests and any
shell script can hold one connection, send line-delimited JSON requests
and read framed responses.  One :class:`ServiceClient` wraps one
connection; a client submitting with ``wait=True`` streams job events on
that connection until the job is terminal.

Error mapping: admission rejections raise
:class:`~repro.common.errors.AdmissionError` (with the daemon's
machine-readable ``reason``), a failed job raises
:class:`~repro.common.errors.JobFailedError`, an unreachable daemon
raises :class:`~repro.common.errors.ServiceUnavailableError`, and any
malformed frame raises :class:`~repro.common.errors.ServiceProtocolError`.
"""

from __future__ import annotations

import socket
import time
from typing import Callable, Dict, Optional

from repro.common.errors import (
    AdmissionError,
    JobFailedError,
    ServiceProtocolError,
    ServiceUnavailableError,
)
from repro.service import protocol


def _connect(address: str, timeout: Optional[float]) -> socket.socket:
    try:
        if protocol.is_tcp_address(address):
            host, port = protocol.split_tcp_address(address)
            return socket.create_connection((host, port), timeout=timeout)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address)
        return sock
    except OSError as exc:
        raise ServiceUnavailableError(
            f"cannot reach simulation daemon at {address}: {exc}"
        ) from None


def wait_for_server(
    address: Optional[str] = None,
    deadline_s: float = 10.0,
    interval_s: float = 0.05,
) -> None:
    """Block until the daemon answers ``ping`` (or raise after deadline)."""
    address = address or protocol.default_address()
    deadline = time.monotonic() + deadline_s
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with ServiceClient(address, timeout=deadline_s) as client:
                client.ping()
                return
        except ServiceUnavailableError as exc:
            last = exc
            time.sleep(interval_s)
    raise ServiceUnavailableError(
        f"daemon at {address} not reachable within {deadline_s:.1f}s: {last}"
    )


class ServiceClient:
    """One connection to the daemon.  Usable as a context manager."""

    def __init__(
        self, address: Optional[str] = None, timeout: Optional[float] = 60.0
    ) -> None:
        self.address = address or protocol.default_address()
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    # -- plumbing --------------------------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            self._sock = _connect(self.address, self.timeout)
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._buffer = b""

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def send(self, message: Dict[str, object]) -> None:
        self.connect()
        try:
            self._sock.sendall(protocol.encode_message(message))
        except OSError as exc:
            raise ServiceUnavailableError(f"daemon connection lost: {exc}") from None

    def read_message(self, timeout: Optional[float] = None) -> Dict[str, object]:
        """Read one framed response (blocking, honouring ``timeout``, else
        the client's own)."""
        self.connect()
        applied = self.timeout if timeout is None else timeout
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            while b"\n" not in self._buffer:
                if len(self._buffer) > protocol.MAX_LINE_BYTES:
                    raise ServiceProtocolError("oversized frame from daemon")
                try:
                    chunk = self._sock.recv(65536)
                except socket.timeout:
                    raise ServiceUnavailableError(
                        f"daemon did not respond within {applied}s"
                    ) from None
                except OSError as exc:
                    raise ServiceUnavailableError(
                        f"daemon connection lost: {exc}"
                    ) from None
                if not chunk:
                    raise ServiceUnavailableError("daemon closed the connection")
                self._buffer += chunk
        finally:
            if timeout is not None:
                self._sock.settimeout(self.timeout)
        line, self._buffer = self._buffer.split(b"\n", 1)
        return protocol.decode_line(line)

    def request(self, op: str, **fields) -> Dict[str, object]:
        """One request → one response."""
        message = {"op": op}
        message.update(fields)
        self.send(message)
        return self.read_message()

    # -- endpoints -------------------------------------------------------------

    def ping(self) -> Dict[str, object]:
        return self.request("ping")

    def status(self) -> Dict[str, object]:
        return self.request("status")

    def drain(self, timeout: Optional[float] = None) -> Dict[str, object]:
        self.send({"op": "drain"})
        return self.read_message(timeout=timeout)

    def shutdown(self, drain: bool = False) -> Dict[str, object]:
        return self.request("shutdown", drain=drain)

    def submit(
        self,
        spec: Dict[str, object],
        client: str = "cli",
        wait: bool = True,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        timeout: Optional[float] = None,
        raise_on_failure: bool = True,
    ) -> Dict[str, object]:
        """Submit one job spec; returns the final event.

        With ``wait=True`` (default) streams events — each passed to
        ``on_event`` — and returns the terminal ``done``/``failed``
        event.  With ``wait=False`` returns the ``queued``
        acknowledgement immediately.  Backpressure rejections raise
        :class:`AdmissionError`; a failed job raises
        :class:`JobFailedError` unless ``raise_on_failure=False``.
        """
        self.send({"op": "submit", "spec": spec, "client": client, "wait": wait})
        ack = self.read_message(timeout=timeout)
        if not ack.get("ok"):
            reason = str(ack.get("error", "rejected"))
            detail = str(ack.get("detail", ack))
            if reason == "protocol":
                raise ServiceProtocolError(detail)
            raise AdmissionError(detail, reason=reason)
        if on_event is not None:
            on_event(ack)
        if not wait:
            return ack
        event = ack
        while event.get("event") not in ("done", "failed"):
            event = self.read_message(timeout=timeout)
            if on_event is not None:
                on_event(event)
        if raise_on_failure and event.get("event") == "failed":
            raise JobFailedError(
                f"job {event.get('job')} failed after "
                f"{event.get('attempts')} attempt(s): {event.get('error')}"
            )
        return event
