"""Lifecycle of the ``repro serve`` subprocess the serve workloads talk to.

The server runs in its own session so that teardown can signal the whole
process group: whatever happens — a clean ``shutdown`` op, a failed
readiness wait, an exception in the harness, Ctrl-C — no pool worker
outlives :meth:`ServerProcess.stop`.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.e2e import SRC_DIR
from benchmarks.e2e import procs

READY_TIMEOUT_S = 20.0
STOP_TIMEOUT_S = 10.0
WORKERS = 2


class ServerProcess:
    """One ``python -m repro serve --unix-socket ... --workers 2`` process."""

    def __init__(self, tmpdir: Path, left_rcd: Path, right_rcd: Path) -> None:
        # Unix socket paths are limited to ~107 bytes; a relative path
        # stays short however deep the checkout lives.
        self.socket_path = os.path.relpath(tmpdir / "serve.sock")
        self.log_path = tmpdir / "serve.log"
        self._argv = [
            sys.executable, "-m", "repro", "serve",
            "--unix-socket", self.socket_path,
            "--workers", str(WORKERS),
            "--dataset", f"L={left_rcd}",
            "--dataset", f"R={right_rcd}",
        ]  # fmt: skip
        self._proc: Optional[subprocess.Popen] = None
        self._loop = asyncio.new_event_loop()
        self._client: Any = None
        #: every pid seen in the server's tree (for the leak check)
        self.seen_pids: List[int] = []

    # ------------------------------------------------------------------
    @property
    def pid(self) -> int:
        assert self._proc is not None, "server not started"
        return self._proc.pid

    def start(self) -> None:
        """Spawn the server and wait until it answers ``ping``."""
        from repro.serve import ServeClient

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with open(self.log_path, "wb") as log:
            self._proc = subprocess.Popen(
                self._argv,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self._proc.returncode} before "
                    f"it was ready:\n{self.log_tail()}"
                )
            try:
                self._client = self.run(ServeClient.connect(unix_socket=self.socket_path))
                if self.run(self._client.ping()).get("ok"):
                    return
            except (FileNotFoundError, ConnectionRefusedError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"server not ready within {READY_TIMEOUT_S:.0f} s:\n{self.log_tail()}"
                )
            time.sleep(0.005)

    def run(self, coroutine: Any) -> Any:
        """Drive one client coroutine to completion on the private loop."""
        return self._loop.run_until_complete(coroutine)

    # ------------------------------------------------------------------
    # the ops the workloads time
    # ------------------------------------------------------------------
    def join(self, **options: Any) -> Tuple[Dict[str, Any], List[Tuple[int, int]]]:
        return self.run(self._client.join("L", "R", **options))

    def ping(self) -> Dict[str, Any]:
        return self.run(self._client.ping())

    def stats(self) -> Dict[str, Any]:
        return self.run(self._client.stats())

    # ------------------------------------------------------------------
    def tree(self) -> List[int]:
        tree = procs.process_tree(self.pid)
        self.seen_pids = sorted(set(self.seen_pids) | set(tree))
        return tree

    def log_tail(self, lines: int = 15) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return "(no server log)"
        return "\n".join(text.splitlines()[-lines:])

    def stop(self) -> None:
        """Stop the server and everything it spawned (idempotent)."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                self.seen_pids = sorted(
                    set(self.seen_pids) | set(procs.process_tree(proc.pid))
                )
                try:
                    if self._client is not None:
                        self.run(self._client.shutdown())
                        self.run(self._client.close())
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except (OSError, subprocess.TimeoutExpired):
                    pass  # no clean shutdown; the signals below still stop it
        finally:
            if proc.poll() is None:
                # No clean shutdown: SIGTERM lets the server unlink its pins.
                _signal_group(proc.pid, signal.SIGTERM)
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S / 2)
                except subprocess.TimeoutExpired:
                    pass
            # Whatever is left of the group (after a clean stop only the
            # server's idle multiprocessing resource tracker) dies here.
            _signal_group(proc.pid, signal.SIGKILL)
            proc.wait()
            self._client = None
            self._loop.close()
        running = procs.wait_ended(self.seen_pids, STOP_TIMEOUT_S)
        if running:
            raise RuntimeError(f"server processes survived SIGKILL: {running}")


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass  # the whole group already exited
