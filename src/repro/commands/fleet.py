"""``repro fleet``: run or control an HTTP gateway fronting N daemons."""

import argparse
import json
import os
import sys
import urllib.error
import urllib.request

from repro.cli import DEFAULT_FLEET_HTTP, FLEET_HTTP_ENV
from repro.common.errors import (
    ConfigurationError,
    ServiceError,
    ServiceUnavailableError,
)


def _fleet_url(args: argparse.Namespace, path: str) -> str:
    base = args.http or os.environ.get(FLEET_HTTP_ENV) or DEFAULT_FLEET_HTTP
    if "://" not in base:
        base = "http://" + base
    return base.rstrip("/") + path


def _http_json(url: str, method: str = "GET", body=None, timeout: float = 600.0):
    """One JSON request against the gateway; returns (status, payload)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"ok": False, "error": "http", "detail": raw[:200].decode("latin-1")}
        return exc.code, payload
    except (urllib.error.URLError, OSError) as exc:
        raise ServiceUnavailableError(f"cannot reach gateway at {url}: {exc}") from None


def _serve(args: argparse.Namespace) -> int:
    from repro.commands.serve import resolve_runner
    from repro.service.fleet import FleetManager
    from repro.service.gateway import Gateway, GatewayOptions

    host, _, port_text = args.http_bind.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"--http must look like HOST:PORT, got {args.http_bind!r}"
        ) from None
    if args.runner:
        resolve_runner(args.runner)  # fail fast before spawning daemons
    manager = FleetManager(
        base_dir=args.base_dir,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_per_client=args.max_per_client,
        job_timeout=args.job_timeout,
        runner=args.runner,
    )
    print(
        f"repro fleet: starting {args.count} daemon(s) "
        f"({args.workers} worker(s) each) ...",
        flush=True,
    )
    try:
        manager.start(args.count)
        for shard in manager.shards():
            print(f"  {shard.name}: pid {shard.pid} on {shard.address}", flush=True)
        gateway = Gateway(
            GatewayOptions(
                host=host or "127.0.0.1",
                port=port,
                fleet=manager,
            )
        )
        print(
            f"repro fleet: gateway on http://{host or '127.0.0.1'}:{port}",
            flush=True,
        )
        try:
            gateway.run()
        except KeyboardInterrupt:
            pass
    finally:
        manager.stop_all()
    print("repro fleet: stopped")
    return 0


def _fleet_request(args: argparse.Namespace, path: str, method="GET", body=None):
    """Gateway request with connection errors turned into exit code 2."""
    try:
        return _http_json(
            _fleet_url(args, path), method=method, body=body, timeout=args.timeout
        )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None


def _print_fleet_totals(totals: dict) -> None:
    counters = totals.get("counters", {})
    print(
        f"fleet: {totals.get('reachable')}/{totals.get('shards')} shards "
        f"reachable, {totals.get('queued')} queued, "
        f"{totals.get('busy_workers')}/{totals.get('workers')} workers busy, "
        f"cache hit rate {totals.get('cache_hit_rate')}"
    )
    print(
        "fleet counters: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
    )


def _print_shard_line(label: str, status) -> None:
    if not status or not status.get("ok"):
        detail = (status or {}).get("error", "unreachable")
        print(f"  {label}: UNREACHABLE ({detail})")
        return
    queue = status.get("queue", {})
    workers = status.get("workers", {})
    counters = status.get("counters", {})
    submitted = counters.get("submitted", 0)
    print(
        f"  {label}: pid {status.get('pid')}, "
        f"queue {queue.get('depth')}/{queue.get('max_depth')}, "
        f"workers {workers.get('busy')}/{workers.get('size')} busy, "
        f"cache_hits {counters.get('cache_hits', 0)}/{submitted}, "
        f"retries {counters.get('retries', 0)}"
    )


def _status(args: argparse.Namespace) -> int:
    code, payload = _fleet_request(args, "/status")
    if code is None:
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if code == 200 and payload.get("ok") else 1
    gateway = payload.get("gateway", {})
    print(
        f"gateway {gateway.get('http')} up {gateway.get('uptime_s')}s "
        f"({gateway.get('alive')} shard(s) alive)"
    )
    print(
        "gateway counters: "
        + ", ".join(
            f"{k}={v}" for k, v in sorted((gateway.get("counters") or {}).items())
        )
    )
    _print_fleet_totals(payload.get("totals", {}))
    for entry in payload.get("shards", []):
        label = f"{entry.get('shard')} {entry.get('address')}"
        _print_shard_line(label, entry.get("status"))
    return 0 if code == 200 and payload.get("ok") else 1


def _drain(args: argparse.Namespace) -> int:
    code, payload = _fleet_request(args, "/drain", method="POST")
    if code is None:
        return 2
    if code == 200 and payload.get("ok"):
        print(f"drained {payload.get('drained', 0)} pending job(s) fleet-wide")
        return 0
    print(f"error: {payload.get('detail', payload)}", file=sys.stderr)
    return 2


def _stop(args: argparse.Namespace) -> int:
    code, payload = _fleet_request(
        args, "/shutdown", method="POST", body={"drain": bool(args.drain)}
    )
    if code is None:
        return 2
    if code == 200 and payload.get("ok"):
        print("fleet shutdown requested")
        return 0
    print(f"error: {payload.get('detail', payload)}", file=sys.stderr)
    return 2


_OPS = {"serve": _serve, "status": _status, "drain": _drain, "stop": _stop}


def run(args: argparse.Namespace) -> int:
    return _OPS[args.fleet_op](args)
