"""``repro svc-status``: query one running daemon.

Queue depth, workers, counters; ``--drain`` quiesces it, ``--shutdown``
stops it (``--drain --shutdown`` finishes in-flight work first).
"""

import argparse
import json
import sys

from repro.common.errors import ServiceError
from repro.service.client import ServiceClient


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


def run(args: argparse.Namespace) -> int:
    try:
        with ServiceClient(args.socket, timeout=args.timeout) as client:
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
