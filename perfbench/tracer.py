"""Layer tracing for the traced benchmark run (``--trace 1``).

The tracer wraps public functions of the program from outside: each
wrapped call becomes a span ``(name, phase, start, end, parent)`` kept in
memory, and some calls also bump counters (DH group operations, rows
written, empty mailbox polls). Nothing in ``src/`` is edited; the wrappers
are installed by replacing the function on its class, or on every
``repro.*`` module that imported it by name.

Spans are only recorded while :attr:`Tracer.enabled` is true, so a traced
run can time some steps with the wrappers idle and compare (the tracing
overhead). Each span carries the *phase* it ran in — ``setup``, ``step``
or ``resume`` — and every per-layer metric is normalised by the number of
traced units of its phase (see :func:`layer_metrics`).
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Phases the metrics read; spans of the ``check`` phase (the
#: benchmark's own reference computations) are kept but never counted.
PHASES = ("setup", "step", "resume")


class Tracer:
    """In-memory spans and counters, keyed by phase."""

    def __init__(self) -> None:
        self.enabled = False
        self.phase = "setup"
        #: (name, phase, start, end, parent index or -1, thread ident)
        self.spans: List[Tuple[str, str, float, float, int, int]] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.units: Dict[str, int] = defaultdict(int)
        self.contains_keys: Dict[str, set] = defaultdict(set)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------
    def begin_unit(self, phase: str) -> None:
        """Enter ``phase`` and, when tracing, count one unit of it."""
        self.phase = phase
        if self.enabled:
            self.units[phase] += 1

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[(name, self.phase)] += amount

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable[..., Any],
             after: Optional[Callable[["Tracer", tuple, Any], None]] = None
             ) -> Callable[..., Any]:
        """Wrap ``fn`` so every call while enabled records a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append((name, tracer.phase, 0.0, 0.0,
                                     stack[-1] if stack else -1,
                                     threading.get_ident()))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                entry = tracer.spans[index]
                tracer.spans[index] = (entry[0], entry[1], start, end,
                                       entry[4], entry[5])
            if after is not None:
                after(tracer, args, result)
            return result
        return wrapper

    def counter(self, name: str, fn: Callable[..., Any],
                after: Optional[Callable[["Tracer", tuple, Any], None]] = None
                ) -> Callable[..., Any]:
        """Wrap ``fn`` so every call while enabled bumps ``name`` only
        (for calls too small and too many to keep a span each)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if tracer.enabled:
                tracer.count(name)
                if after is not None:
                    after(tracer, args, result)
            return result
        return wrapper

    # -- installing wrappers --------------------------------------------
    def patch_method(self, cls: type, attr: str,
                     make: Callable[[Callable[..., Any]], Callable[..., Any]]
                     ) -> None:
        """Replace ``cls.attr`` with ``make(original)``; classmethods and
        staticmethods keep their kind, and an inherited method is
        shadowed on ``cls`` only."""
        if attr not in cls.__dict__:
            setattr(cls, attr, make(getattr(cls, attr)))
            self._undo.append(lambda: delattr(cls, attr))
            return
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, attr, new)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def patch_function(self, fn: Callable[..., Any],
                       make: Callable[[Callable[..., Any]], Callable[..., Any]]
                       ) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that holds it
        (``from x import fn`` copies the name into the importer)."""
        wrapped = make(fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        functools.partial(setattr, module, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reductions -----------------------------------------------------
    def _children_time(self) -> List[float]:
        child_time = [0.0] * len(self.spans)
        for _name, _phase, start, end, parent, _tid in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def _outer(self, name: str, phase: str):
        """Indexes of ``name`` spans in ``phase`` not nested in another
        ``name`` span (so recursion is not counted twice)."""
        spans = self.spans
        return [i for i, s in enumerate(spans)
                if s[0] == name and s[1] == phase
                and (s[4] < 0 or spans[s[4]][0] != name)]

    def durations(self, name: str, phase: str) -> List[float]:
        return [self.spans[i][3] - self.spans[i][2]
                for i in self._outer(name, phase)]

    def total(self, name: str, phase: str) -> float:
        return sum(self.durations(name, phase))

    def self_total(self, name: str, phase: str) -> float:
        child_time = self._children_time()
        return sum(s[3] - s[2] - child_time[i]
                   for i, s in enumerate(self.spans)
                   if s[0] == name and s[1] == phase)

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds) over the
        traced set-ups, steps and resumes. A span's self time is its
        duration minus its direct children's."""
        child_time = self._children_time()
        table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, phase, start, end, _p, _t) in \
                enumerate(self.spans):
            if phase not in PHASES:
                continue
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[index]
        return {name: (int(r[0]), r[1], r[2]) for name, r in table.items()}

    def per_unit(self, value: float, phase: str) -> float:
        units = self.units.get(phase, 0)
        return value / units if units else 0.0

    def write(self, path: str) -> None:
        """Write every span and counter as gzip-compressed JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, phase, start, end, parent, tid in self.spans:
                out.write(json.dumps({"span": name, "phase": phase,
                                      "start": start, "end": end,
                                      "parent": parent, "thread": tid})
                          + "\n")
            for (name, phase), value in sorted(self.counts.items()):
                out.write(json.dumps({"count": name, "phase": phase,
                                      "value": value}) + "\n")
            out.write(json.dumps({"units": dict(self.units)}) + "\n")


# ----------------------------------------------------------------------
# The wiring: which public function belongs to which layer
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries (imports the program)."""
    import http.client

    from repro.api import ProtocolSession
    from repro.core.detector import CountBasedDetector
    from repro.core.pipeline import DetectionPipeline
    from repro.crypto.blinding import BlindingGenerator, PadStreamProvider
    from repro.crypto.group import DHGroup
    from repro.protocol import enrollment, wire
    from repro.protocol.aggregator import (
        CliqueAggregator,
        RegionalAggregator,
        RootAggregator,
    )
    from repro.protocol.army import ClientArmy
    from repro.protocol.client import ProtocolClient
    from repro.protocol.membership import MembershipManager
    from repro.protocol.messages import PartialAggregate
    from repro.protocol.runner import ProtocolRunner
    from repro.service.app import ServiceApp
    from repro.service.client import RemoteClient, ServiceHTTP
    from repro.service.state import ServiceState
    from repro.store.history import HistoryStore
    from repro.store.recorder import SessionRecorder

    def span(name, after=None):
        return lambda fn: tracer.span(name, fn, after)

    def counter(name, after=None):
        return lambda fn: tracer.counter(name, fn, after)

    def transition_counts(t: Tracer, _args: tuple, result: Any) -> None:
        t.count("membership.modexps", result.modexps)
        t.count("membership.secrets_reused", result.secrets_reused)

    def partial_in(t: Tracer, args: tuple, _result: Any) -> None:
        if isinstance(args[2], PartialAggregate):
            t.count("aggregator.partials")

    def contains_key(t: Tracer, args: tuple, _result: Any) -> None:
        t.contains_keys[t.phase].add(args[1])

    def verdicts(t: Tracer, _args: tuple, result: Any) -> None:
        t.count("detector.verdicts", len(result))

    def rows(t: Tracer, args: tuple, _result: Any) -> None:
        t.count("store.detection_rows", len(args[2]))

    def poll(t: Tracer, _args: tuple, result: Any) -> None:
        t.count("service.polls")
        if not result:
            t.count("service.empty_polls")

    tracer.patch_function(enrollment.enroll_users, span("enrollment.enroll"))
    tracer.patch_method(ClientArmy, "enroll", span("enrollment.enroll"))
    tracer.patch_method(DHGroup, "keypair", counter("crypto.keypair"))
    tracer.patch_method(DHGroup, "shared_secret",
                        counter("crypto.shared_secret"))
    tracer.patch_method(DHGroup, "contains",
                        counter("crypto.contains", contains_key))
    tracer.patch_method(RemoteClient, "sync", span("service.sync"))
    for cls in (MembershipManager, ClientArmy):
        tracer.patch_method(cls, "advance_epoch",
                            span("membership.advance_epoch",
                                 transition_counts))
    tracer.patch_method(MembershipManager, "from_history",
                        span("membership.from_history"))
    tracer.patch_method(ClientArmy, "on_round_start",
                        span("army.round_start"))
    tracer.patch_method(ClientArmy, "on_message", span("army.recovery"))
    tracer.patch_method(ProtocolClient, "on_round_start",
                        span("client.round_start"))
    tracer.patch_method(ProtocolClient, "on_message",
                        span("client.adjustment"))
    tracer.patch_method(BlindingGenerator, "blind_array",
                        span("blinding.blind"))
    tracer.patch_method(BlindingGenerator, "accumulate_clique_matrix",
                        span("blinding.blind"))
    for attr in ("stream", "clique_matrix"):
        tracer.patch_method(PadStreamProvider, attr,
                            span("blinding.pad",
                                 lambda t, a, r: t.count("blinding.streams")))
    tracer.patch_function(wire.encode, span("wire.encode"))
    tracer.patch_function(wire.decode, span("wire.decode"))
    for cls, name in ((CliqueAggregator, "aggregator.clique"),
                      (RegionalAggregator, "aggregator.regional"),
                      (RootAggregator, "aggregator.root")):
        after = partial_in if cls is not CliqueAggregator else None
        tracer.patch_method(cls, "on_message", span(name, after))
        tracer.patch_method(cls, "on_idle", span(name))
    tracer.patch_method(ProtocolRunner, "run_round", span("runner.run_round"))
    tracer.patch_method(CountBasedDetector, "classify_all",
                        span("detector.classify", verdicts))
    tracer.patch_method(DetectionPipeline, "run_week",
                        span("pipeline.run_week"))
    tracer.patch_method(SessionRecorder, "record_round",
                        span("store.record_round"))
    tracer.patch_method(HistoryStore, "record_detections",
                        span("store.record_detections", rows))
    for attr in ("save_weekly_record", "save_weekly_stats"):
        tracer.patch_method(HistoryStore, attr, span("store.weekly"))
    for attr in ("session_record", "session_names", "epoch_records",
                 "last_round_id", "round_history", "round_record"):
        tracer.patch_method(HistoryStore, attr, span("store.read"))
    tracer.patch_method(ProtocolSession, "resume", span("session.resume"))
    tracer.patch_method(ServiceHTTP, "request", span("service.request"))
    tracer.patch_method(ServiceApp, "__call__", span("service.app"))
    tracer.patch_method(ServiceState, "submit", span("service.submit"))
    tracer.patch_method(ServiceState, "finalize", span("service.finalize"))
    tracer.patch_method(ServiceState, "drain_mailbox",
                        counter("service.drain", poll))
    tracer.patch_method(http.client.HTTPConnection, "connect",
                        counter("service.connections"))


# ----------------------------------------------------------------------
# Per-layer metrics, each normalised by the traced units of its phase
# ----------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, overhead_pct: float
                  ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json as name -> (value, unit).

    Set-up metrics are per set-up, resume metrics per resume, the rest
    per step (a round, or a week on ``detect_weeks``). A layer the
    workload never calls reads 0.
    """
    def count(name: str, phase: str = "step") -> float:
        return t.counts.get((name, phase), 0.0)

    def per(value: float, phase: str = "step") -> float:
        return t.per_unit(value, phase)

    def step_s(name: str) -> float:
        return per(t.total(name, "step"))

    metrics: Dict[str, Tuple[float, str]] = {
        "enrollment.enroll_s":
            (per(t.total("enrollment.enroll", "setup"), "setup"), "s"),
        "crypto.keypair_calls":
            (per(count("crypto.keypair", "setup"), "setup"), "count"),
        "crypto.shared_secret_calls":
            (per(count("crypto.shared_secret", "setup"), "setup"), "count"),
        "crypto.contains_calls":
            (per(count("crypto.contains", "setup"), "setup"), "count"),
        "crypto.contains_per_key":
            (_ratio(count("crypto.contains", "setup"),
                    len(t.contains_keys.get("setup", ()))), "ratio"),
        "service.sync_s":
            (_median(t.durations("service.sync", "setup")), "s"),
        "membership.advance_epoch_s":
            (step_s("membership.advance_epoch"), "s"),
        "membership.modexps": (per(count("membership.modexps")), "count"),
        "membership.secrets_reused":
            (per(count("membership.secrets_reused")), "count"),
        "membership.from_history_s":
            (per(t.total("membership.from_history", "resume"), "resume"),
             "s"),
        "army.round_start_s": (step_s("army.round_start"), "s"),
        "army.recovery_s": (step_s("army.recovery"), "s"),
        "client.round_start_s": (step_s("client.round_start"), "s"),
        "client.adjustment_s": (step_s("client.adjustment"), "s"),
        "blinding.blind_s": (step_s("blinding.blind"), "s"),
        "blinding.streams": (per(count("blinding.streams")), "count"),
        "wire.encode_s": (step_s("wire.encode"), "s"),
        "wire.decode_s": (step_s("wire.decode"), "s"),
        "wire.encode_calls":
            (per(len(t.durations("wire.encode", "step"))), "count"),
        "transport.messages": (per(count("transport.messages")), "count"),
        "transport.bytes": (per(count("transport.bytes")), "B"),
        "aggregator.clique_s": (step_s("aggregator.clique"), "s"),
        "aggregator.regional_s": (step_s("aggregator.regional"), "s"),
        "aggregator.root_s": (step_s("aggregator.root"), "s"),
        "aggregator.partials":
            (per(count("aggregator.partials")), "count"),
        "runner.self_s": (per(t.self_total("runner.run_round", "step")), "s"),
        "detector.classify_s": (step_s("detector.classify"), "s"),
        "detector.verdicts": (per(count("detector.verdicts")), "count"),
        "pipeline.self_s":
            (per(t.self_total("pipeline.run_week", "step")), "s"),
        "store.record_round_s": (step_s("store.record_round"), "s"),
        "store.record_detections_s":
            (step_s("store.record_detections"), "s"),
        "store.weekly_s": (step_s("store.weekly"), "s"),
        "store.detection_rows":
            (per(count("store.detection_rows")), "count"),
        "store.read_s":
            (per(t.total("store.read", "resume"), "resume"), "s"),
        "service.request_s":
            (_median(t.durations("service.request", "step")), "s"),
        "service.requests":
            (per(len(t.durations("service.request", "step"))), "count"),
        "service.app_s": (step_s("service.app"), "s"),
        "service.connections":
            (per(count("service.connections")), "count"),
        "service.submit_s": (step_s("service.submit"), "s"),
        "service.finalize_s": (step_s("service.finalize"), "s"),
        "service.empty_poll_ratio":
            (_ratio(count("service.empty_polls"), count("service.polls")),
             "ratio"),
        "service.envelope_ratio":
            (_ratio(count("service.http_bytes"), count("transport.bytes")),
             "ratio"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return metrics


def self_time_table(t: Tracer) -> List[str]:
    """Printable per-span self time over the whole traced run."""
    rows = sorted(t.self_times().items(), key=lambda kv: -kv[1][2])
    lines = [f"{'span':<28} {'calls':>9} {'incl s':>10} {'self s':>10}"]
    for name, (calls, inclusive, own) in rows:
        lines.append(f"{name:<28} {calls:>9} {inclusive:>10.4f} {own:>10.4f}")
    return lines
