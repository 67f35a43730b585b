"""What the three workloads share: the measuring schedule, the record a
workload hands back, and the run's provenance (git sha, host)."""

from __future__ import annotations

import os
import platform
import random
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

#: How many times each workload sets up from scratch in one run; the
#: reported ``setup_s`` is the median.
SETUPS = 3


@dataclass
class Outcome:
    """Everything one workload run measured, before reduction."""

    setup_s: List[float] = field(default_factory=list)
    #: (seconds, traced) per step: a round, or a week on detect_weeks.
    #: ``traced`` is None for the warm-up cycle's steps, which no
    #: statistic uses.
    steps: List[tuple] = field(default_factory=list)
    bytes_per_user: List[float] = field(default_factory=list)
    #: operation kind -> [attempted, failed]
    ops: Dict[str, List[int]] = field(
        default_factory=lambda: defaultdict(lambda: [0, 0]))
    #: Figures printed for the reader, not gated.
    info: Dict[str, Any] = field(default_factory=dict)

    def attempt(self, kind: str, failed: bool = False, n: int = 1) -> None:
        self.ops[kind][0] += n
        if failed:
            self.ops[kind][1] += n

    def untraced_steps(self) -> List[float]:
        return [s for s, traced in self.steps if traced is False]

    def traced_steps(self) -> List[float]:
        return [s for s, traced in self.steps if traced is True]


def cycles(seconds: float, tracer: Any, min_cycles: int = 2) -> Iterator[int]:
    """Yield cycle numbers until ``seconds`` of measuring have passed,
    always whole cycles and at least ``min_cycles``.

    Cycle 0 is a warm-up, run before the clock starts; callers record
    its steps with ``traced=None``. With a tracer, the first half of the
    time runs with tracing off and the second half with it on (at least
    ``min_cycles`` each), so the same run gives the tracing overhead.
    """
    if tracer is not None:
        tracer.enabled = False
    yield 0
    start = time.perf_counter()
    n, traced = 1, 0
    while True:
        elapsed = time.perf_counter() - start
        if tracer is None:
            if n > min_cycles and elapsed >= seconds:
                return
        elif tracer.enabled:
            if traced >= min_cycles and elapsed >= seconds:
                return
            traced += 1
        elif n > min_cycles and elapsed >= seconds / 2:
            tracer.enabled = True
            traced = 1
        yield n
        n += 1


def one_per_clique(clique_of: Dict[str, int], count: int,
                   rng: random.Random) -> List[str]:
    """``count`` users from ``count`` distinct cliques, so every run's
    recovery exchange has the same shape whatever the seed."""
    members: Dict[int, List[str]] = {}
    for user, clique in sorted(clique_of.items()):
        members.setdefault(clique, []).append(user)
    chosen = rng.sample(sorted(members), count)
    return sorted(rng.choice(members[clique]) for clique in chosen)


def peak_rss_mb() -> float:
    """Lifetime peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    ``unknown`` when the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> Dict[str, Any]:
    import numpy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "system": platform.system()}


def timed(fn: Any, sink: List[float]) -> Any:
    """``fn`` with each call's wall time appended to ``sink``."""
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)
    return wrapper


def out_dir(root: str) -> str:
    """Where runs leave their trace files and scratch stores."""
    return os.path.join(root, ".perfbench_out")

