"""Server processes under test: spawn, wait for health, measure, stop."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Seconds a server may take from spawn to its first healthy answer.
START_TIMEOUT_S = 60.0


class ServerError(RuntimeError):
    """A server under test failed to start or stop cleanly."""


def _health(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            sock.sendall(b'{"v":1,"id":"h","op":"health"}\n')
            reply = sock.makefile("rb").readline()
    except OSError:
        return False
    return bool(reply) and json.loads(reply).get("status") == "ok"


class Server:
    """One ``repro serve`` process (optionally through the launcher)."""

    def __init__(self, serve_args: list[str], workdir: Path, name: str, *,
                 record: Path | None = None, double_classifier: bool = False) -> None:
        self.port_file = workdir / f"{name}.port"
        self.log_path = workdir / f"{name}.log"
        self.record = record
        args = [*serve_args, "--port", "0", "--port-file", str(self.port_file)]
        if record is None and not double_classifier:
            self.argv = [sys.executable, "-m", "repro", *args]
        else:
            self.argv = [sys.executable, str(HERE / "launcher.py")]
            if record is not None:
                self.argv += ["--record", str(record)]
            if double_classifier:
                self.argv.append("--double-classifier")
            self.argv += ["--", *args]
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0

    def start(self) -> float:
        """Spawn and wait for the first healthy answer; returns set-up seconds."""
        self.port_file.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        # Write back the generated inputs now, so the kernel's delayed
        # writeback does not land in the middle of a measurement.
        os.sync()
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(self.argv, stdout=log, stderr=subprocess.STDOUT,
                                         env=env, cwd=self.port_file.parent)
        deadline = t0 + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise ServerError(f"server exited with {self.proc.returncode}; "
                                  f"see {self.log_path}")
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.endswith("\n") and _health(int(text)):
                self.port = int(text)
                self.setup_s = time.perf_counter() - t0
                return self.setup_s
            time.sleep(0.002)
        self.stop()
        raise ServerError(f"server not healthy within {START_TIMEOUT_S} s")

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (VmHWM) so far, in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM not reported")

    def stop(self) -> None:
        """Graceful drain (SIGTERM); kill if it does not end in time."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise ServerError("server did not drain within 60 s") from None
        if code != 0:
            raise ServerError(f"server drained with exit code {code}; see {self.log_path}")
