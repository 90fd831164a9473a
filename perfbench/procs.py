"""Process plumbing: hermetic environments, spawning, reaping, RSS.

Every process the benchmark starts runs in its own process group and
is recorded in ``.work/live.json`` while it lives, so a crash or a
timeout can kill the whole group (a fleet's workers included) and the
next run can refuse to start while anything from an earlier run is
still alive.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
LIVE = WORK / "live.json"


class BenchError(Exception):
    """The benchmark cannot run (missing program, stale processes)."""


def require_program() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is "
                         f"missing (run from a full checkout)")


def become_subreaper() -> None:
    """Adopt orphaned grandchildren (fleet workers whose coordinator
    died) so they can be waited for; Linux only, best effort."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def child_env(cache_dir: Path) -> Dict[str, str]:
    """The environment of every program process: the checkout's
    sources, a per-run cache directory, nothing inherited that could
    point at a shared artifact store."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# The live-process registry.
# ----------------------------------------------------------------------
def _group_alive(pgid: int) -> bool:
    """True while any non-zombie process is in group ``pgid``."""
    return any(fields[0] != "Z" for _, fields in _group_members(pgid))


def refuse_if_stale(live: Path = LIVE) -> None:
    if not live.exists():
        return
    try:
        groups = json.loads(live.read_text())
    except (OSError, ValueError):
        groups = []
    alive = [pgid for pgid in groups if _group_alive(int(pgid))]
    if alive:
        raise BenchError(f"processes from an earlier run are still "
                         f"alive (process groups {alive}); stop them "
                         f"first")
    live.unlink()


class Reaper:
    """Owns every process group the run starts; ``live`` lists them."""

    def __init__(self, live: Path = LIVE):
        self.live = live
        self._groups: List[subprocess.Popen] = []
        self._lock = threading.Lock()

    def _record(self) -> None:
        pgids = [proc.pid for proc in self._groups]
        if pgids:
            self.live.parent.mkdir(parents=True, exist_ok=True)
            self.live.write_text(json.dumps(pgids))
        elif self.live.exists():
            self.live.unlink()

    def popen(self, args: Sequence[str], env: Dict[str, str],
              stdout, cwd: Optional[Path] = None) -> subprocess.Popen:
        with self._lock:
            proc = subprocess.Popen(list(args), env=env, stdout=stdout,
                                    stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL,
                                    cwd=str(cwd or ROOT),
                                    start_new_session=True)
            self._groups.append(proc)
            self._record()
        return proc

    def stop(self, proc: subprocess.Popen, grace: float = 5.0) -> None:
        """SIGTERM the group, SIGKILL it after ``grace``; wait for
        every member."""
        for sig, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, 10.0)):
            if _ended(proc):
                break
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + wait
            while time.monotonic() < deadline and not _ended(proc):
                time.sleep(0.02)
        self.forget(proc)

    def forget(self, proc: subprocess.Popen) -> None:
        with self._lock:
            if proc in self._groups:
                self._groups.remove(proc)
            self._record()

    def stop_all(self) -> None:
        for proc in list(self._groups):
            self.stop(proc, grace=2.0)


def _ended(proc: subprocess.Popen) -> bool:
    proc.poll()
    _reap_orphans()
    return proc.returncode is not None and not _group_alive(proc.pid)


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def run_child(reaper: Reaper, args: Sequence[str], env: Dict[str, str],
              out_path: Path, timeout: float
              ) -> Tuple[int, float, float, float]:
    """Run one program process to completion.

    Returns ``(exit code, wall seconds, CPU seconds, peak RSS in MB)``;
    stdout and stderr go to ``out_path``.  The wall clock spans process
    creation to reaping, which is what a user of the CLI waits for; the
    CPU time (user + system, ``wait4``) leaves out the time the process
    waited for a CPU, which on a shared host is other tenants' doing.
    """
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = reaper.popen(args, env, out)
        timer = threading.Timer(timeout, os.killpg, (proc.pid,
                                                     signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    reaper.stop(proc)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def _group_members(pgid: int):
    """``(proc entry, stat fields)`` of every live process in a group."""
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[2]) == pgid:
            yield entry, fields


def group_peak_rss_mb(pgid: int) -> float:
    """Sum of the peak RSS (VmHWM) of every live process in a group."""
    total_kb = 0
    for entry, _ in _group_members(pgid):
        try:
            for line in (entry / "status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except (OSError, ValueError, IndexError):
            continue
    return total_kb / 1024.0


def group_cpu_s(pgid: int) -> float:
    """User + system CPU seconds used so far by the live processes of a
    group (all their threads)."""
    ticks = sum(int(fields[11]) + int(fields[12])
                for _, fields in _group_members(pgid))
    return ticks / os.sysconf("SC_CLK_TCK")


def python() -> str:
    return sys.executable
