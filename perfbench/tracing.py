"""Per-layer tracing from outside the program.

The traced run replaces public functions of the `pacreach` modules with
wrappers that time each call and record its parent span. Two
namespaces matter: `analysis` imports `learn_safe_set`, `monte_carlo`,
`exact_count_dp` and `solve_confidence` by name, and `learn_safe_set`
looks `draw_safe_example` and `query_oracle` up as `pacreach.learner`
globals. Methods are patched on their classes. Nothing under `src/`
knows it is being traced, and the wrappers pass arguments and results
through untouched.

Spans are aggregated as they close rather than kept one by one: a deep
run closes close to a million of them. A span's self time is its
duration minus the durations of its direct children, which cover
disjoint parts of it because the program is single-threaded.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import pacreach.analysis
import pacreach.learner
from pacreach.mealy import MealyMachine
from pacreach.monomials import MonomialSet
from pacreach.sul import SafetyQuery


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move


# Recorded before measuring: which end-to-end metric each layer metric
# should move, on which workload, and where the prediction is no change.
LAYER_METRICS = [
    LayerMetric("learner.query_oracle.calls", "count", "lower",
                "norm_wall_s on deep, partly on table"),
    LayerMetric("learner.query_oracle.busy_s", "s", "lower",
                "norm_wall_s on deep, partly on table"),
    LayerMetric("learner.queries_per_oracle_call", "count", "lower",
                "norm_wall_s on deep, partly on table"),
    LayerMetric("mealy.step.calls", "count", "lower",
                "norm_wall_s on deep, partly on table"),
    LayerMetric("learner.draw_safe_example.calls", "count", "lower",
                "norm_wall_s on table; no change on deep"),
    LayerMetric("learner.draw_safe_example.busy_s", "s", "lower",
                "norm_wall_s on table; no change on deep"),
    LayerMetric("learner.sample_accept_ratio", "ratio", "higher",
                "norm_wall_s on table; no change on deep"),
    LayerMetric("learner.implied_skip_ratio", "ratio", "higher",
                "explains norm_wall_s on table and deep"),
    LayerMetric("learner.oracle_accept_ratio", "ratio", "higher",
                "explains norm_wall_s on table and deep"),
    LayerMetric("learner.learn_safe_set.self_s", "s", "lower",
                "explains norm_wall_s on table and deep"),
    LayerMetric("monomials.count_exact.calls", "count", "lower",
                "norm_wall_s and peak_rss_mb on deep; "
                "no change on table, wire"),
    LayerMetric("monomials.count_exact.busy_s", "s", "lower",
                "norm_wall_s and peak_rss_mb on deep; "
                "no change on table, wire"),
    LayerMetric("monomials.count_fallbacks", "count", "lower",
                "norm_wall_s and peak_rss_mb on deep; "
                "no change on table, wire"),
    LayerMetric("monomials.implies.calls", "count", "lower",
                "norm_wall_s on table; no change on deep"),
    LayerMetric("monomials.implies.busy_s", "s", "lower",
                "norm_wall_s on table; no change on deep"),
    LayerMetric("monomials.add.calls", "count", "lower",
                "norm_wall_s on table; no change on deep"),
    LayerMetric("monomials.add.busy_s", "s", "lower",
                "norm_wall_s on table; no change on deep"),
    LayerMetric("monomials.learned_size", "count", "lower",
                "norm_wall_s on table; no change on deep"),
    LayerMetric("sul.is_safe.calls", "count", "lower",
                "target_queries and norm_wall_s on wire"),
    LayerMetric("sul.is_safe.busy_s", "s", "lower",
                "target_queries and norm_wall_s on wire"),
    LayerMetric("sul.distinct_ratio", "ratio", "higher",
                "target_queries and norm_wall_s on wire"),
    LayerMetric("wire.round_trips", "count", "lower",
                "norm_wall_s and setup_s on wire; no change on table, deep"),
    LayerMetric("wire.bytes_sent", "B", "lower",
                "norm_wall_s and setup_s on wire; no change on table, deep"),
    LayerMetric("wire.bytes_received", "B", "lower",
                "norm_wall_s and setup_s on wire; no change on table, deep"),
    LayerMetric("wire.sessions", "count", "lower",
                "norm_wall_s and setup_s on wire; no change on table, deep"),
    LayerMetric("bounds.solve_confidence.busy_s", "s", "lower",
                "norm_wall_s everywhere; under 3 % today"),
    LayerMetric("baselines.monte_carlo.busy_s", "s", "lower",
                "norm_wall_s everywhere; under 3 % today"),
    LayerMetric("baselines.exact_count_dp.busy_s", "s", "lower",
                "norm_wall_s everywhere; under 3 % today"),
    LayerMetric("analysis.self_s", "s", "lower",
                "norm_wall_s everywhere; under 3 % today"),
    LayerMetric("trace.wall_s", "s", "lower",
                "wall_s of the traced passes; context for the shares"),
    LayerMetric("trace.overhead_s", "s", "lower",
                "traced minus untraced wall_s; keeps the shares honest"),
]


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.truthy: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.child_calls: Counter[tuple[str, str]] = Counter()
        self.learned_size = 0
        self.steps = 0
        self.seen: dict[SafetyQuery, set[int]] = {}
        # one [name, time covered by children] frame per open span
        self._stack: list[list] = [["root", 0.0]]

    def span(self, name: str, fn, observe=None):
        """`fn` wrapped in a span named `name`.

        `observe(args, result)` runs after the span closes, outside it.
        """
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_time[name] += dt - frame[1]
                self.child_calls[(parent[0], name)] += 1
            if result:
                self.truthy[name] += 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _note_query(self, args, _result):
        sul, seq = args
        self.seen.setdefault(sul, set()).add(hash(tuple(seq)))

    def _note_learned(self, _args, result):
        self.learned_size += len(result[0])

    def _count_step(self, fn):
        def step(machine, state, sym):
            self.steps += 1
            return fn(machine, state, sym)
        return step

    @contextmanager
    def installed(self):
        """Patch the program's layer boundaries for the duration."""
        patches = [
            (pacreach.analysis, "analyze", "analysis.analyze", None),
            (pacreach.analysis, "learn_safe_set", "learner.learn_safe_set",
             self._note_learned),
            (pacreach.analysis, "monte_carlo", "baselines.monte_carlo", None),
            (pacreach.analysis, "exact_count_dp", "baselines.exact_count_dp",
             None),
            (pacreach.analysis, "solve_confidence",
             "bounds.solve_confidence", None),
            (pacreach.learner, "draw_safe_example",
             "learner.draw_safe_example", None),
            (pacreach.learner, "query_oracle", "learner.query_oracle", None),
            (MonomialSet, "implies", "monomials.implies", None),
            (MonomialSet, "add", "monomials.add", None),
            (MonomialSet, "count_exact", "monomials.count_exact", None),
            (SafetyQuery, "is_safe", "sul.is_safe", self._note_query),
        ]
        originals = []
        try:
            for owner, attr, name, observe in patches:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.span(name, fn, observe))
            originals.append((MealyMachine, "step", MealyMachine.step))
            MealyMachine.step = self._count_step(MealyMachine.step)
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, fallbacks: int,
                  wire: dict) -> dict[str, float]:
    """One traced pass's values, by metric name (trace.* excluded).

    `wire` holds the model servers' record totals; empty in process.
    Machine steps count in whichever process runs the machine.
    """
    c, b, t = tracer.calls, tracer.busy, tracer.truthy
    oracle, draw = "learner.query_oracle", "learner.draw_safe_example"
    queries = c["sul.is_safe"]
    return {
        "learner.query_oracle.calls": c[oracle],
        "learner.query_oracle.busy_s": b[oracle],
        "learner.queries_per_oracle_call": _ratio(
            tracer.child_calls[(oracle, "sul.is_safe")], c[oracle]),
        "mealy.step.calls": tracer.steps + wire.get("steps", 0),
        "learner.draw_safe_example.calls": c[draw],
        "learner.draw_safe_example.busy_s": b[draw],
        "learner.sample_accept_ratio": _ratio(
            t[draw], tracer.child_calls[(draw, "sul.is_safe")]),
        "learner.implied_skip_ratio": _ratio(
            t["monomials.implies"], c["monomials.implies"]),
        "learner.oracle_accept_ratio": _ratio(t[oracle], c[oracle]),
        "learner.learn_safe_set.self_s":
            tracer.self_time["learner.learn_safe_set"],
        "monomials.count_exact.calls": c["monomials.count_exact"],
        "monomials.count_exact.busy_s": b["monomials.count_exact"],
        "monomials.count_fallbacks": fallbacks,
        "monomials.implies.calls": c["monomials.implies"],
        "monomials.implies.busy_s": b["monomials.implies"],
        "monomials.add.calls": c["monomials.add"],
        "monomials.add.busy_s": b["monomials.add"],
        "monomials.learned_size": tracer.learned_size,
        "sul.is_safe.calls": queries,
        "sul.is_safe.busy_s": b["sul.is_safe"],
        "sul.distinct_ratio": _ratio(
            sum(len(s) for s in tracer.seen.values()), queries),
        "wire.round_trips": wire.get("requests", 0),
        "wire.bytes_sent": wire.get("bytes_in", 0),
        "wire.bytes_received": wire.get("bytes_out", 0),
        "wire.sessions": wire.get("sessions", 0),
        "bounds.solve_confidence.busy_s": b["bounds.solve_confidence"],
        "baselines.monte_carlo.busy_s": b["baselines.monte_carlo"],
        "baselines.exact_count_dp.busy_s": b["baselines.exact_count_dp"],
        "analysis.self_s": tracer.self_time["analysis.analyze"],
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass)
            for name in per_pass[0]}
