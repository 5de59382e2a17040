"""Shared plumbing of the workloads: rounds, timing, checks and digests."""

from __future__ import annotations

import hashlib
import os
import resource
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# fixed manifest timestamps make the CLI's JSON and CSV byte-reproducible
SOURCE_DATE_EPOCH = "1700000000"


def child_env() -> dict:
    """Environment of every child process: the tree's src, fixed timestamps."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    return env


class Run:
    """One workload run: its operations, samples, checks and digest.

    Every round runs the same operations on the same inputs. The first
    output of each operation is checked against the references and goes
    into the digest; every later output of it must be bit-identical.
    """

    def __init__(self, seconds: float, tracer: Tracer | None):
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.op_seconds = 0.0  # time spent in timed operations
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._seen: dict[str, bytes] = {}
        self._digest = hashlib.sha256()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def timed(self, kind: str, key: str, fn, *args):
        """Run one operation; return (output, wall seconds)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(kind, key)
            t0 = time.perf_counter()
            out = self.tracer.call("op." + kind, fn, *args)
        else:
            t0 = time.perf_counter()
            out = fn(*args)
        dt = time.perf_counter() - t0
        self.op_seconds += dt
        return out, dt

    def first_output(self, key: str, fingerprint: bytes) -> bool:
        """True on an operation's first output, which the caller then checks.

        Later outputs must match the first one byte for byte.
        """
        seen = self._seen.get(key)
        if seen is None:
            self._seen[key] = fingerprint
            self._digest.update(key.encode() + b"\0" + fingerprint)
            return True
        self.check(seen == fingerprint, f"{key}: output changed between rounds")
        return False

    def run_rounds(self, do_round) -> None:
        """Whole rounds while the next is expected to end within the run's
        time; at least one.

        The next round is expected to take the mean time of a round's
        operations so far, which leaves out the first round's checks.
        """
        t0 = time.perf_counter()
        while True:
            do_round(self.rounds)
            self.rounds += 1
            elapsed = time.perf_counter() - t0
            if elapsed + self.op_seconds / self.rounds > self.seconds:
                break

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def fingerprint(*values) -> bytes:
    """Bytes of float64 values, for bit-identity comparison."""
    return b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in values)


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6
