"""Shared pieces of the benchmark: percentiles, the op ledger, /proc sampling.

Everything here is stdlib-only and independent of the ``repro`` package, so
the benchmark's own tests can exercise it without a dataset or a server.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

#: Tail percentiles a timing may be reported at beside its median, lowest
#: first.  The median is always reported, with its sample count.
PERCENTILE_LADDER = (90.0, 99.0, 99.9)

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Op outcomes; everything but "ok" counts as a failure.
OUTCOMES = ("ok", "error", "timeout", "shed", "wrong")


# --------------------------------------------------------------------- #
# percentiles


def tail_samples(count: int, pct: float) -> float:
    """How many of ``count`` samples lie beyond the ``pct`` percentile."""
    return count * (100.0 - pct) / 100.0


def supported(count: int, pct: float) -> bool:
    """True when ``count`` samples put at least ten beyond ``pct``."""
    return tail_samples(count, pct) >= MIN_TAIL_SAMPLES - 1e-9


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest tail percentile with >= 10 samples beyond it, or None."""
    best = None
    for pct in PERCENTILE_LADDER:
        if supported(count, pct):
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def reported_percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """``percentile`` when >= 10 samples lie beyond it, else None."""
    if not values or not supported(len(values), pct):
        return None
    return percentile(values, pct)


def median(values: Iterable[float]) -> float:
    """Median, 0.0 for an empty input (used for optional layer figures)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean, 0.0 for an empty input."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# --------------------------------------------------------------------- #
# the ledger


@dataclass
class Op:
    """One operation the benchmark sends: a read (query) or a write batch.

    Attributes:
        kind: ``"read"`` or ``"write"``.
        body: The request object (query spec or ``POST /objects`` body).
        due: Seconds after the phase origin the op is due (open loop).
        phase: ``"open"`` or ``"closed"``.
        sent / done: ``time.perf_counter()`` stamps (NaN until set).
        outcome: One of :data:`OUTCOMES` (empty until the op finished).
        response: The decoded response of a successful op.
    """

    kind: str
    body: Dict[str, object]
    due: float = 0.0
    phase: str = "open"
    due_at: float = math.nan
    sent: float = math.nan
    done: float = math.nan
    outcome: str = ""
    detail: str = ""
    response: Optional[Dict[str, object]] = None

    @property
    def latency(self) -> float:
        """Seconds from when the op was due (open loop) or sent (closed)."""
        start = self.due_at if self.phase == "open" else self.sent
        return self.done - start

    @property
    def lag(self) -> float:
        """How late the generator sent the op (open loop only)."""
        return self.sent - self.due_at


@dataclass
class Ledger:
    """Every op attempted in the measured phases, with its outcome."""

    ops: List[Op] = field(default_factory=list)

    def add(self, ops: Iterable[Op]) -> None:
        self.ops.extend(ops)

    def counts(self) -> Dict[str, int]:
        """Outcome counts over every attempted op (unfinished = error)."""
        counts = dict.fromkeys(OUTCOMES, 0)
        for op in self.ops:
            counts[op.outcome if op.outcome in counts else "error"] += 1
        return counts

    def summary(self) -> Dict[str, object]:
        """attempted / ok / failed, failed broken down by kind."""
        counts = self.counts()
        failed = {kind: n for kind, n in counts.items() if kind != "ok"}
        total_failed = sum(failed.values())
        attempted = len(self.ops)
        if attempted != counts["ok"] + total_failed:
            raise AssertionError("ledger does not reconcile")
        return {
            "attempted": attempted,
            "ok": counts["ok"],
            "failed": total_failed,
            "failed_by_kind": failed,
            "failed_share": total_failed / attempted if attempted else 0.0,
        }


# --------------------------------------------------------------------- #
# /proc sampling

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` in seconds (0.0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    # Fields after the command name start at field 3 (state); utime and
    # stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MB (0.0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def live_pids_with(token: str) -> List[int]:
    """Pids of running (non-zombie) processes whose command line holds ``token``."""
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode(errors="replace")
            with open(f"/proc/{name}/stat", "r", encoding="ascii") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue
        if token in cmdline and state != "Z":
            found.append(int(name))
    return found


# --------------------------------------------------------------------- #
# machine metadata


def git_commit(root: str) -> str:
    """The checked-out commit read from ``.git`` (``"unknown"`` outside git)."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, "r", encoding="ascii") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), "r", encoding="ascii") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def machine_metadata(root: str) -> Dict[str, object]:
    """nproc, Python version, platform and commit of this run."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(root),
    }
