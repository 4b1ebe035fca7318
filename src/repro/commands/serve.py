"""``repro serve``: run the simulation daemon in the foreground.

A long-lived asyncio service owning a supervised worker pool, admitting jobs
over a local socket with explicit backpressure and running them in arrival
order.  See ``docs/service.md``.
"""

import argparse
import importlib

from repro.common.errors import ConfigurationError
from repro.service.server import ServerOptions, SimulationServer


def resolve_runner(dotted: str):
    """Import a ``package.module:callable`` job runner (serve --runner)."""
    module_name, sep, attr = dotted.partition(":")
    if not sep or not module_name or not attr:
        raise ConfigurationError(
            f"--runner must look like package.module:callable, got {dotted!r}"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(f"cannot import runner module: {exc}") from None
    runner = getattr(module, attr, None)
    if not callable(runner):
        raise ConfigurationError(
            f"{dotted!r} does not name a callable in {module_name}"
        )
    return runner


def run(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.runner:
        kwargs["runner"] = resolve_runner(args.runner)
    options = ServerOptions(
        address=args.socket,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_per_client=args.max_per_client,
        job_timeout=args.job_timeout or None,
        **kwargs,
    )
    server = SimulationServer(options)
    print(
        f"repro daemon: serving on {server.address} "
        f"({options.workers} worker(s), queue depth {options.queue_depth})",
        flush=True,
    )
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    print("repro daemon: stopped")
    return 0
