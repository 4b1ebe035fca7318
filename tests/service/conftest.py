"""Service test harness: daemons + gateway in background threads."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service.client import ServiceClient, wait_for_server
from repro.service.gateway import Gateway, GatewayOptions, serve_in_thread
from repro.service.server import ServerOptions, SimulationServer


class RunningServer:
    """Handle to one live daemon started by the ``service_server`` factory."""

    def __init__(self, server: SimulationServer, thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread
        self.address = server.address

    def client(self, timeout: float = 60.0) -> ServiceClient:
        return ServiceClient(self.address, timeout=timeout)

    def stop(self, join_timeout: float = 15.0) -> None:
        self.server.stop_threadsafe()
        self.thread.join(timeout=join_timeout)
        # belt-and-braces: never leak worker processes past a test
        self.server.pool.stop()


@pytest.fixture
def service_server(tmp_path, monkeypatch):
    """Factory fixture: ``service_server(**ServerOptions fields)``.

    Each started daemon gets a fresh result-cache directory and a Unix
    socket under ``tmp_path``; every daemon is stopped (and its workers
    killed) at teardown even when the test fails.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    started = []
    counter = [0]

    def start(**options) -> RunningServer:
        counter[0] += 1
        options.setdefault("address", str(tmp_path / f"svc{counter[0]}.sock"))
        options.setdefault("workers", 1)
        options.setdefault("poll_interval", 0.01)
        options.setdefault("retry_backoff", 0.05)
        server = SimulationServer(ServerOptions(**options))
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        wait_for_server(server.address, deadline_s=15.0)
        handle = RunningServer(server, thread)
        started.append(handle)
        return handle

    yield start
    for handle in started:
        handle.stop()


class RunningGateway:
    """Handle to one live HTTP gateway started by ``gateway_for``."""

    def __init__(self, gateway: Gateway, thread: threading.Thread) -> None:
        self.gateway = gateway
        self.thread = thread
        self.url = f"http://127.0.0.1:{gateway.bound_port}"

    def request(self, method: str, path: str, body=None, timeout: float = 120.0):
        """One HTTP round-trip; returns ``(status_code, json_payload)``."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode("utf-8"))

    def submit(self, spec, client: str = "test", timeout: float = 120.0):
        return self.request(
            "POST", "/submit", {"spec": spec, "client": client}, timeout=timeout
        )

    def stop(self, join_timeout: float = 15.0) -> None:
        self.gateway.stop_threadsafe()
        self.thread.join(timeout=join_timeout)


@pytest.fixture
def gateway_for():
    """Factory fixture: ``gateway_for(address, **GatewayOptions fields)``.

    Starts an HTTP gateway on an ephemeral port fronting the daemon at
    ``address``; stopped at teardown even when the test fails.
    """
    started = []

    def start(address, **options) -> RunningGateway:
        options.setdefault("daemon", address)
        gateway = Gateway(GatewayOptions(**options))
        thread = serve_in_thread(gateway)
        handle = RunningGateway(gateway, thread)
        started.append(handle)
        return handle

    yield start
    for handle in started:
        handle.stop()
