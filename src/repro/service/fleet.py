"""Daemon supervision for the gateway harness: one ``repro serve`` subprocess.

:class:`FleetManager` spawns the daemon on a private socket, waits until it
answers ``ping`` and stops it again.  Every setting not passed here keeps
``repro serve``'s default.  The daemon inherits the parent's environment,
in particular ``REPRO_CACHE_DIR``, so it reads and writes the same result
cache as every other ``repro`` process on the host.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError, ServiceUnavailableError


class FleetManager:
    """Spawns and supervises one daemon subprocess on a private socket."""

    def __init__(
        self,
        base_dir: os.PathLike,
        workers: int = 2,
        queue_depth: int = 64,
        runner: Optional[str] = None,
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        self.base_dir = Path(base_dir)
        self.workers = workers
        self.queue_depth = queue_depth
        self.runner = runner
        self.env = env
        self.address = str(self.base_dir / "daemon.sock")
        self.log_path = self.base_dir / "daemon.log"
        self.process: Optional[subprocess.Popen] = None

    def addresses(self) -> List[str]:
        """The running daemon's socket address, as a one-element list."""
        return [self.address] if self.process is not None else []

    def start(self, count: int, deadline_s: float = 60.0) -> None:
        """Spawn the daemon and wait until it answers ``ping``.

        ``count`` must be 1.  A daemon that exits during startup is
        reported at once with the last line of its log; on any failure
        the process is torn down.
        """
        from repro.service.client import wait_for_server

        if count != 1:
            raise ConfigurationError(
                f"a fleet runs exactly one daemon, got a count of {count}"
            )
        self.base_dir.mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            self.address,
            "--workers",
            str(self.workers),
            "--queue-depth",
            str(self.queue_depth),
        ]
        if self.runner:
            command += ["--runner", self.runner]
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=self.env
            )
        deadline = time.monotonic() + deadline_s
        try:
            while True:
                code = self.process.poll()
                if code is not None:
                    raise ServiceUnavailableError(
                        f"daemon exited during startup (code {code}): "
                        f"{self._last_log_line()}"
                    )
                try:
                    wait_for_server(self.address, deadline_s=0.25)
                    return
                except ServiceUnavailableError:
                    if time.monotonic() >= deadline:
                        raise
        except BaseException:
            self.stop_all()
            raise

    def _last_log_line(self) -> str:
        try:
            lines = self.log_path.read_text(errors="replace").splitlines()
        except OSError:
            lines = []
        last = next((line for line in reversed(lines) if line.strip()), None)
        return last.strip() if last else f"no output in {self.log_path}"

    def stop_all(self) -> None:
        """Best-effort clean shutdown of the daemon, then reap the process."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            try:
                from repro.service.client import ServiceClient

                with ServiceClient(self.address, timeout=10.0) as client:
                    client.shutdown()
            except Exception:
                pass
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.terminate()
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                process.kill()
                process.wait(timeout=5.0)
