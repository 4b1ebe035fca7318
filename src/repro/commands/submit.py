"""``repro submit KIND ...``: submit one job to a running daemon.

Streams the job's progress events and prints the served result summary
(cycle counts + fingerprint digests).  Identical concurrent submissions
coalesce server-side to a single execution.
"""

import argparse
import json
import sys

from repro.common.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.specs import spec_for_motivate, spec_for_pair


def _print_submit_event(event: dict) -> None:
    kind = event.get("event")
    if kind == "queued":
        note = []
        if event.get("coalesced"):
            note.append("coalesced onto in-flight job")
        if event.get("cached"):
            note.append("served from result cache")
        suffix = f" ({', '.join(note)})" if note else ""
        print(f"[{event.get('job')}] queued{suffix}")
    elif kind == "started":
        print(
            f"[{event.get('job')}] started on worker {event.get('worker')} "
            f"(attempt {event.get('attempt')})"
        )
    elif kind == "retrying":
        print(
            f"[{event.get('job')}] retrying after {event.get('reason')}: "
            f"{event.get('error')}"
        )


def run(args: argparse.Namespace) -> int:
    if args.kind == "pair":
        spec = spec_for_pair(
            args.suite, args.mem, args.comp, policy=args.policy, scale=args.scale
        )
    else:
        spec = spec_for_motivate(policy=args.policy, scale=args.scale)
    on_event = None if args.json else _print_submit_event
    try:
        with ServiceClient(args.socket, timeout=args.timeout) as client:
            final = client.submit(
                spec,
                client=args.client,
                on_event=on_event,
                timeout=args.timeout,
                raise_on_failure=False,
            )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(final, indent=2, sort_keys=True))
        return 0 if final.get("event") != "failed" else 1
    if final.get("event") == "failed":
        print(f"[{final.get('job')}] FAILED: {final.get('error')}", file=sys.stderr)
        return 1
    result = final.get("result") or {}
    print(
        f"[{final.get('job')}] done: policy={result.get('policy')} "
        f"total_cycles={result.get('total_cycles')} "
        f"core_cycles={result.get('core_cycles')}"
        + (" [cached]" if final.get("cached") else "")
    )
    for section, digest in sorted((result.get("fingerprint") or {}).items()):
        print(f"  {section:<20} {digest[:16]}")
    return 0
