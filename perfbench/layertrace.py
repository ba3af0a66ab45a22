"""Outside-in layer tracing for one benchmark repetition.

The tracer wraps the public entry points of each chargesim layer, as the
engine sees them, and records one span per call: name, start, end, parent
and the id of the engine.step span that caused it. Nothing inside src/ is
changed; the wrappers are installed into a throwaway child process only,
so the untraced repetitions run the program exactly as shipped.

Self time of a span is its duration minus the spans directly under it,
gc pauses included, so the self times of one phase add up to the phase.
"""

from __future__ import annotations

import gc
import gzip
import json
import time
from array import array
from contextlib import contextmanager

SPAN_FIELDS = ("id", "parent", "step", "name", "start_ns", "end_ns")


class Tracer:
    def __init__(self, keep_spans: bool):
        self._clock = time.perf_counter_ns
        self._stack: list[list] = []  # [name, start_ns, child_ns, span_id, parent_id]
        self._next_id = 0
        self._step_id = 0
        self._in_gc = False
        self._phase = ""
        self.names: dict[str, int] = {}
        self.spans: array | None = array("q") if keep_spans else None
        self.self_ns: dict[tuple[str, str], int] = {}  # (phase, span name) -> ns
        self.calls: dict[tuple[str, str], int] = {}
        self.phase_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}

    # -- spans ------------------------------------------------------------------

    def enter(self, name: str) -> int:
        self._next_id += 1
        span_id = self._next_id
        stack = self._stack
        # A collection triggered by allocating the frame runs before the span
        # is on the stack and before its clock starts, so it nests only under
        # the parent.
        frame = [name, 0, 0, span_id, stack[-1][3] if stack else 0]
        stack.append(frame)
        frame[1] = self._clock()
        return span_id

    def exit(self) -> None:
        end = self._clock()
        stack = self._stack
        name, start, child_ns, span_id, parent = stack.pop()
        duration = end - start
        key = (self._phase, name)
        self.self_ns[key] = self.self_ns.get(key, 0) + duration - child_ns
        self.calls[key] = self.calls.get(key, 0) + 1
        if stack:
            stack[-1][2] += duration
        else:
            self.phase_ns[self._phase] = self.phase_ns.get(self._phase, 0) + duration
        if self.spans is not None:
            name_id = self.names.setdefault(name, len(self.names))
            self.spans.extend((span_id, parent, self._step_id, name_id, start, end))

    @contextmanager
    def root(self, phase: str, name: str):
        """A top-level span opened by the benchmark itself, e.g. around Simulation.run."""
        if self._stack:
            raise RuntimeError(f"root span {name} opened inside {self._stack[-1][0]}")
        self._phase = phase
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped in a span; observe(args, result) then counts its work."""
        enter, exit_ = self.enter, self.exit
        if observe is None:
            def traced(*args, **kwargs):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        else:
            def traced(*args, **kwargs):
                enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_()
                observe(args, result)
                return result
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def wrap_step(self, fn):
        """Simulation.step: its span id becomes the request id of every span below it."""
        enter, exit_ = self.enter, self.exit

        def traced(sim):
            self._step_id = enter("engine.step")
            try:
                return fn(sim)
            finally:
                exit_()
                self._step_id = 0

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- gc ---------------------------------------------------------------------

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            if self._stack:
                self._in_gc = True
                self.enter("gc.collect")
        elif self._in_gc:
            self._in_gc = False
            self.exit()

    # -- results ----------------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(ns for (_, n), ns in self.self_ns.items() if n in names) / 1e9

    def call_count(self, *names: str) -> int:
        return sum(c for (_, n), c in self.calls.items() if n in names)

    def table(self) -> list[dict]:
        """One row per (phase, span name): calls, self seconds, share of the phase."""
        rows = []
        for (phase, name), ns in self.self_ns.items():
            rows.append(
                {
                    "phase": phase,
                    "span": name,
                    "calls": self.calls[(phase, name)],
                    "self_s": ns / 1e9,
                    "share": ns / self.phase_ns[phase] if self.phase_ns.get(phase) else 0.0,
                }
            )
        rows.sort(key=lambda row: (row["phase"], -row["self_s"]))
        return rows

    def write_spans(self, path) -> int:
        """Write the kept spans as gzipped JSON lines, times relative to the first span."""
        if self.spans is None:
            raise RuntimeError("tracer was created without keep_spans")
        by_id = {index: name for name, index in self.names.items()}
        width = len(SPAN_FIELDS)
        spans = self.spans
        origin = min(spans[4::width]) if spans else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for i in range(0, len(spans), width):
                fh.write(
                    json.dumps(
                        [spans[i], spans[i + 1], spans[i + 2], by_id[spans[i + 3]],
                         spans[i + 4] - origin, spans[i + 5] - origin]
                    )
                    + "\n"
                )
        return len(spans) // width


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points the engine calls. For a throwaway process only."""
    import chargesim.engine as engine
    from chargesim.georoute import OfflineRouter
    from chargesim.memory import MemoryStore
    from chargesim.perception import PerceptionSnapshot

    def observe_perceive(args, snapshot):
        tracer.count("perception.stations_evaluated", len(args[1].stations))
        tracer.count("perception.stations_kept", len(snapshot.stations))

    def observe_retrieve(args, records):
        tracer.count("memory.records_scanned", len(args[0].records))
        tracer.count("memory.records_returned", len(records))

    def observe_begin_charge(args, ticket):
        tracer.count("environment.wait_minutes_total", ticket.start_charge - ticket.start_wait)

    engine.perceive = tracer.wrap("perception.perceive", engine.perceive, observe_perceive)
    engine.begin_charge = tracer.wrap(
        "environment.begin_charge", engine.begin_charge, observe_begin_charge
    )
    engine.consume_energy = tracer.wrap("environment.consume_energy", engine.consume_energy)
    engine.validate_decision = tracer.wrap(
        "providers.validate_decision", engine.validate_decision
    )
    engine.baseline_decision = tracer.wrap(
        "providers.baseline_decision", engine.baseline_decision
    )
    engine.build_summary = tracer.wrap("export.build_summary", engine.build_summary)
    PerceptionSnapshot.digest = tracer.wrap("perception.digest", PerceptionSnapshot.digest)
    OfflineRouter.route = tracer.wrap("georoute.route", OfflineRouter.route)
    MemoryStore.__init__ = tracer.wrap("memory.open", MemoryStore.__init__)
    MemoryStore.append = tracer.wrap("memory.append", MemoryStore.append)
    MemoryStore.append_reflection = tracer.wrap(
        "memory.append_reflection", MemoryStore.append_reflection
    )
    MemoryStore.retrieve = tracer.wrap("memory.retrieve", MemoryStore.retrieve, observe_retrieve)
    MemoryStore.daily_aggregates = tracer.wrap(
        "memory.daily_aggregates", MemoryStore.daily_aggregates
    )
    engine.Simulation.step = tracer.wrap_step(engine.Simulation.step)
    gc.callbacks.append(tracer.on_gc)


def traced_provider(tracer: Tracer, inner):
    """A CognitionProvider that delegates to inner, one span per call."""
    from chargesim.providers.base import CognitionProvider

    persona = tracer.wrap("providers.generate_persona", inner.generate_persona)
    plan_day = tracer.wrap("providers.plan_day", inner.plan_day)
    decide = tracer.wrap("providers.decide", inner.decide)
    reflect = tracer.wrap("providers.reflect", inner.reflect)

    class TracedProvider(CognitionProvider):
        def generate_persona(self, seed, template_config):
            return persona(seed, template_config)

        def plan_day(self, persona_, day_index, seed):
            return plan_day(persona_, day_index, seed)

        def decide(self, request):
            return decide(request)

        def reflect(self, day_records, persona_, plans):
            return reflect(day_records, persona_, plans)

    return TracedProvider()
