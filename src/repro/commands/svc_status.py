"""``repro svc-status``: query a running daemon, or a fleet of them.

Queue depth, workers, counters; ``--drain`` quiesces it, ``--shutdown``
stops it.
"""

import argparse
import json
import sys

from repro.common.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.fleet import aggregate_statuses


def _print_daemon_status(status: dict) -> None:
    queue = status.get("queue", {})
    workers = status.get("workers", {})
    counters = status.get("counters", {})
    print(
        f"daemon pid {status.get('pid')} up {status.get('uptime_s')}s "
        f"at {status.get('address')} "
        f"(draining={status.get('draining')})"
    )
    print(
        f"queue: {queue.get('depth')}/{queue.get('max_depth')} queued, "
        f"workers {workers.get('busy')}/{workers.get('size')} busy "
        f"(pids {workers.get('pids')}, {workers.get('recycled')} recycled)"
    )
    print(
        "counters: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
    )


def print_fleet_totals(totals: dict) -> None:
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


def print_shard_line(label: str, status) -> None:
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


def run(args: argparse.Namespace) -> int:
    sockets = args.socket or [None]
    if len(sockets) == 1:
        # Single daemon: the original detailed view (and the only mode
        # where --drain/--shutdown stop one specific daemon).
        try:
            with ServiceClient(sockets[0], timeout=args.timeout) as client:
                if args.drain:
                    reply = client.drain(timeout=args.timeout)
                    print(f"drained {reply.get('drained', 0)} pending job(s)")
                status = client.status()
                if args.shutdown:
                    client.shutdown()
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            _print_daemon_status(status)
        if args.shutdown:
            print("shutdown requested")
        return 0

    # Fleet mode: query every shard, aggregate instead of erroring.
    statuses = []
    for address in sockets:
        try:
            with ServiceClient(address, timeout=args.timeout) as client:
                if args.drain:
                    client.drain(timeout=args.timeout)
                status = client.status()
                if args.shutdown:
                    client.shutdown()
            statuses.append(status)
        except ServiceError as exc:
            statuses.append({"ok": False, "error": str(exc)})
    totals = aggregate_statuses(statuses)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": totals.get("reachable", 0) > 0,
                    "totals": totals,
                    "shards": [
                        {"address": address, "status": status}
                        for address, status in zip(sockets, statuses)
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print_fleet_totals(totals)
        for address, status in zip(sockets, statuses):
            print_shard_line(str(address), status)
    if args.shutdown:
        print("shutdown requested")
    return 0 if totals.get("reachable", 0) == len(sockets) else 1
