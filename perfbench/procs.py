"""Process bookkeeping from ``/proc``: session members, their memory, reaping.

A measured run lives in its own session (its leader's pid is the session id),
and Ray's raylet, GCS and workers inherit that session.  Scanning ``/proc``
for the session id therefore finds every process of the run, zombies included.
"""

from __future__ import annotations

import ctypes
import os
import signal
import threading
import time
from typing import List, NamedTuple

_PAGE = os.sysconf("SC_PAGE_SIZE")
_PR_SET_CHILD_SUBREAPER = 36


class Proc(NamedTuple):
    pid: int
    state: str
    rss: int  # bytes
    is_worker: bool  # a Ray worker (its title starts with "ray::")


def _read_proc(pid: int):
    with open("/proc/{}/stat".format(pid), "rb") as f:
        stat = f.read()
    # the command name is parenthesised and may itself hold spaces or ")"
    rest = stat[stat.rindex(b")") + 2:].split()
    return rest


def session_members(sid: int) -> List[Proc]:
    """Every live or zombie process whose session id is ``sid``."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        pid = int(name)
        try:
            rest = _read_proc(pid)
            if int(rest[3]) != sid:
                continue
            with open("/proc/{}/cmdline".format(pid), "rb") as f:
                cmd = f.read(16)
        except (FileNotFoundError, ProcessLookupError, IndexError, ValueError):
            continue  # the process ended while we looked
        out.append(Proc(pid, rest[0].decode(), int(rest[21]) * _PAGE, cmd.startswith(b"ray::")))
    return out


class RssSampler:
    """Samples the summed RSS of a session's processes on a thread."""

    def __init__(self, sid: int, interval: float = 0.25):
        self.sid = sid
        self.interval = interval
        self.peak_total = 0
        self.peak_workers = 0
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler", daemon=True)

    def _sample(self) -> None:
        procs = session_members(self.sid)
        self.peak_total = max(self.peak_total, sum(p.rss for p in procs))
        self.peak_workers = max(self.peak_workers, sum(p.rss for p in procs if p.is_worker))
        self.samples += 1

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def become_subreaper() -> None:
    """Adopt orphaned descendants, so that their zombies are ours to reap."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap_children() -> None:
    """Collect the exit status of every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _signal_all(sid: int, sig: int) -> None:
    try:
        os.killpg(sid, sig)
    except ProcessLookupError:
        pass
    for p in session_members(sid):
        try:
            os.kill(p.pid, sig)
        except ProcessLookupError:
            pass


def drain_session(sid: int, grace: float = 15.0, hard: float = 10.0) -> List[Proc]:
    """Wait until no process of session ``sid`` is left; return the stragglers.

    Waits ``grace`` seconds for the processes to end by themselves, then sends
    SIGTERM, and SIGKILL after another third of ``hard``.  Returns what is
    still there ``hard`` seconds after SIGTERM.
    """
    start = time.monotonic()
    term_at = kill_at = None
    while True:
        reap_children()
        left = session_members(sid)
        if not left:
            return []
        now = time.monotonic()
        if term_at is None and now - start > grace:
            term_at = now
            _signal_all(sid, signal.SIGTERM)
        elif term_at is not None and kill_at is None and now - term_at > hard / 3:
            kill_at = now
            _signal_all(sid, signal.SIGKILL)
        elif term_at is not None and now - term_at > hard:
            return left
        time.sleep(0.05)
