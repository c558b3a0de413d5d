"""Process-level probes for the benchmark: environment record,
resource-leak counts and peak memory.

Everything here reads ``/proc`` or the interpreter; only
:func:`environment` imports the program under test.
"""

from __future__ import annotations

import hashlib
import os
import platform
import threading
from pathlib import Path


# -- environment record -------------------------------------------------------

def _git_commit(root: Path) -> str | None:
    """HEAD's commit read straight from ``.git`` (no subprocess)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources (stable without git)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path) -> dict:
    """Commit, core count and interpreter/library versions."""
    import numpy

    from repro.runtime.executor import available_parallelism

    return {
        "commit": _git_commit(root),
        "src_digest": source_digest(root / "src"),
        "available_parallelism": available_parallelism(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- leak counts --------------------------------------------------------------

def _listening_inodes() -> set[str]:
    inodes = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            fields = line.split()
            if len(fields) > 9 and fields[3] == "0A":   # TCP_LISTEN
                inodes.add(fields[9])
    return inodes


def resource_counts() -> dict[str, int]:
    """Python threads, open fds, /dev/shm entries and listening ports."""
    sockets = set()
    fds = 0
    for fd in os.listdir("/proc/self/fd"):
        fds += 1
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            sockets.add(target[8:-1])
    try:
        shm = len(os.listdir("/dev/shm"))
    except OSError:
        shm = 0
    return {
        "threads": threading.active_count(),
        "fds": fds,
        "shm": shm,
        "ports": len(sockets & _listening_inodes()),
    }


def leak_delta(before: dict, after: dict) -> dict[str, int]:
    return {f"runtime.leaked_{k}": after[k] - before[k] for k in before}


# -- memory -------------------------------------------------------------------

def _child_pids(pid: int) -> list[int]:
    pids = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        pids.extend(int(p) for p in text.split())
    return pids


def _rss_kib(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mib() -> float:
    """Resident memory of this process plus all its descendants."""
    total = 0
    stack = [os.getpid()]
    while stack:
        pid = stack.pop()
        total += _rss_kib(pid)
        stack.extend(_child_pids(pid))
    return total / 1024.0


class PeakRss:
    """Samples the process tree's RSS on a background thread."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak_mib = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-rss", daemon=True)

    def _loop(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(self.interval):
                return

    def sample(self) -> None:
        self.peak_mib = max(self.peak_mib, tree_rss_mib())

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()
