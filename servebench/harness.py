"""Process plumbing: the pinned CPU, the daemon under test, its keep-alive
HTTP connection, ``/proc`` readings and the host-speed probe."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["Connection", "Daemon", "Probe", "pin_to_one_cpu"]

_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU.

    On a small VM a wake-up that crosses CPUs costs more than the hit
    path's own work; one CPU removes that noise (and hides that cost)."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


_PROBE = r"""
import os, sys, time

# Resident memory of the order of a daemon's, so that forking the helper
# copies about as many page tables as the daemon's fork per attempt.
BALLAST = bytearray(24 << 20)
for page in range(0, len(BALLAST), 4096):
    BALLAST[page] = 1

def probe():
    started = time.perf_counter()
    table, total = {}, 0
    for i in range(3000):
        key = i & 127
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    for _ in range(4):
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
    return (time.perf_counter() - started) * 1000.0

for _ in sys.stdin:
    print(repr(probe()), flush=True)
"""


class Probe:
    """The host-speed probe: a small helper process of its own (no program
    code, so no change to the program moves it) that on each call runs a
    fixed piece of work and reports its wall time in ms.

    The work is a short pure-Python loop (dict updates, integer
    arithmetic, string formatting: interpreter work) and four
    fork-exit-wait cycles of a process as large as a daemon (kernel work:
    process creation, page tables, scheduling).  On a 2-vCPU VM the
    host's slow spells last seconds and slow kernel work more than a
    tight loop; with a loop alone, restated figures still followed the
    host's speed, fork-per-attempt misses most."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", _PROBE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def _group_members(pgid: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            members.append(int(entry))
    return members


class Connection:
    """One keep-alive HTTP/1.1 connection with no per-request parsing
    beyond the status line and ``Content-Length``."""

    def __init__(self, port: int, timeout: float = 150.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    @staticmethod
    def post(path: str, body: bytes) -> bytes:
        head = (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        return head.encode("ascii") + body

    def send(self, raw: bytes) -> tuple[int, bytes]:
        self.sock.sendall(raw)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("daemon closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def get_json(self, path: str) -> dict:
        status, body = self.send(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii"))
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Daemon:
    """A ``repro serve --workers 2`` process started from the checkout's
    own sources, in a process group of its own so that its workers can
    be found (and must be gone) after it exits."""

    def __init__(self, root: Path, workdir: Path, *, cache: bool):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.log = workdir / "daemon.log"
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--workers", "2", "--max-timeout", "120"]
        if cache:
            command += ["--cache-dir", str(workdir / "cache")]
        else:
            command += ["--no-cache"]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True)
        self.pid = self.process.pid
        try:
            self.port = self._wait_for_port()
            self.connection = self._wait_healthy()
        except BaseException:
            self.kill()
            raise

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log.read_text(encoding="utf-8", errors="replace")
            marker = "listening on http://127.0.0.1:"
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0].rstrip(","))
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited at start:\n{text}")
            time.sleep(0.005)
        raise RuntimeError("daemon did not announce its port")

    def _wait_healthy(self) -> Connection:
        connection = Connection(self.port)
        if connection.get_json("/healthz").get("status") != "ok":
            raise RuntimeError("daemon is not healthy")
        return connection

    def cpu_ms(self) -> float:
        """User + system CPU of the daemon and its reaped workers, in ms."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rpartition(")")[2].split()
        # Item 0 is field 3 of proc(5); utime, stime, cutime and cstime
        # (fields 14 to 17) are items 11 to 14.
        return sum(int(value) for value in fields[11:15]) * _TICK_MS

    def hwm_mb(self) -> float:
        """Peak resident set size (``VmHWM``) of the daemon, in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {self.pid}")

    def stop(self) -> None:
        """SIGTERM, then require exit status 0 and no process left in the
        daemon's group (its forked workers)."""
        self.connection.close()
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not exit within 60 s of SIGTERM")
        leftovers = _group_members(self.pid)
        if leftovers:
            self.kill()
            raise RuntimeError(f"daemon left processes {leftovers}")
        if code != 0:
            raise RuntimeError(f"daemon exited {code} on SIGTERM")

    def kill(self) -> None:
        """Best-effort cleanup after a failure: kill the whole group."""
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 10
        while _group_members(self.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
