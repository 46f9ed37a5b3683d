"""The three benchmark workloads and the tap that observes their analyses.

A workload run is a sequence of passes. Each pass builds its inputs
(untimed), makes the workload's analysis calls (timed, one contiguous
window) and tears the inputs down again. Every pass starts from fresh
model objects and, for ``wire``, fresh server processes, so nothing a
pass leaves behind can speed up the next one.

Why these three:

- ``table`` is the paper's reproduction, the run users actually make,
  and the one where learned-set upkeep (``implies``, ``add``) matters.
- ``deep`` is one long in-process analysis where oracle queries and
  exact union counting dominate and set upkeep is negligible.
- ``wire`` answers every query over a stdio pipe, so a query costs
  n+1 round trips and fewer than half of the queries are distinct.
"""

from __future__ import annotations

import hashlib
import shlex
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import pacreach.analysis
from pacreach.analysis import TABLE_BUDGET, AnalysisReport, reproduce_table
from pacreach.models import BUNDLED
from pacreach.sul import MachineSafetyQuery, SafetyQuery
from pacreach.wire import BlackBoxConfig, RemoteSafetyQuery

HERE = Path(__file__).resolve().parent

UNSAFE_OUTPUTS = frozenset({"alarm"})
WIRE_TIMEOUT_S = 10.0


def derive(seed: int, label: str) -> int:
    """A 32-bit input seed, a pure function of the workload seed and a label."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Analysis:
    """One analysis the tap saw: its report and the queries its target answered."""

    report: AnalysisReport
    queries: int


class Tap:
    """Observes every `analyze` call without touching its work.

    `analyze` builds its own `MachineSafetyQuery` for a white-box target,
    so the query count of that target is only reachable by replacing the
    class name in `pacreach.analysis` with a subclass that remembers its
    instances. Both patches cost one extra call per analysis.
    """

    def __init__(self):
        self._capture: list[Analysis] | None = None
        self._created: list[SafetyQuery] = []
        self._originals = {}

    def install(self):
        created = self._created
        analyze = pacreach.analysis.analyze

        class TappedMachineSafetyQuery(MachineSafetyQuery):
            def __init__(self, machine):
                super().__init__(machine)
                created.append(self)

        def tapped_analyze(target, **kwargs):
            before = target.query_count if isinstance(target, SafetyQuery) \
                else 0
            mark = len(created)
            report = analyze(target, **kwargs)
            if isinstance(target, SafetyQuery):
                queries = target.query_count - before
            else:
                queries = sum(s.query_count for s in created[mark:])
            del created[mark:]
            if self._capture is not None:
                self._capture.append(Analysis(report, queries))
            return report

        self._originals = {"analyze": analyze,
                           "MachineSafetyQuery": MachineSafetyQuery}
        pacreach.analysis.analyze = tapped_analyze
        pacreach.analysis.MachineSafetyQuery = TappedMachineSafetyQuery

    def uninstall(self):
        for name, value in self._originals.items():
            setattr(pacreach.analysis, name, value)
        self._originals = {}

    @contextmanager
    def capture(self):
        """Collect the analyses made inside the block, in call order."""
        self._capture = []
        try:
            yield self._capture
        finally:
            self._capture = None


def analyze(target, **kwargs) -> AnalysisReport:
    """`pacreach.analysis.analyze` as currently patched (tap, tracer)."""
    return pacreach.analysis.analyze(target, **kwargs)


# -- workloads -----------------------------------------------------------


class Workload:
    """A pass: `setup` its inputs, `run` the timed calls, `teardown`."""

    name = ""
    has_servers = False  # traced passes then count the servers' traffic

    def analyses_per_pass(self) -> int:
        raise NotImplementedError

    def setup(self, seed: int, record_dir: Path | None = None):
        """Build the pass's inputs; `record_dir` asks wire servers to count."""
        raise NotImplementedError

    def run(self, state):
        raise NotImplementedError

    def teardown(self, state):
        pass

    def references(self, seed: int):
        """(target, analyze kwargs) pairs whose reports a pass must equal."""
        return None


class Table(Workload):
    """`reproduce_table()` at master seeds derived from the workload seed."""

    name = "table"

    def __init__(self, master_seeds: int = 3, sample_budget: int = TABLE_BUDGET):
        self.master_seeds = master_seeds
        self.sample_budget = sample_budget

    def analyses_per_pass(self) -> int:
        return 9 * self.master_seeds  # 8 lane-keeping rows + coffee

    def setup(self, seed: int, record_dir: Path | None = None):
        return [derive(seed, f"table:{i}") for i in range(self.master_seeds)]

    def run(self, seeds):
        return [reproduce_table(seed=s, sample_budget=self.sample_budget)
                for s in seeds]


class Deep(Workload):
    """One long white-box analysis of the assisted lane-keeping machine."""

    name = "deep"

    def __init__(self, horizon: int = 12, sample_budget: int = 1000):
        self.horizon = horizon
        self.sample_budget = sample_budget

    def analyses_per_pass(self) -> int:
        return 1

    def setup(self, seed: int, record_dir: Path | None = None):
        return BUNDLED["alks_with"](), derive(seed, "deep")

    def run(self, state):
        machine, seed = state
        analyze(machine, horizon=self.horizon, model_name="alks_with",
                sample_budget=self.sample_budget, seed=seed)


def serve_command(model: str, record_dir: Path | None) -> str:
    """The stock stdio model server, or the counting one when recording."""
    if record_dir is None:
        argv = [sys.executable, "-m", "pacreach.cli", "serve-model",
                "--model", model, "--stdio"]
    else:
        argv = [sys.executable, str(HERE / "count_server.py"),
                "--model", model, "--record-dir", str(record_dir)]
    return shlex.join(argv)


class Wire(Workload):
    """Both lane-keeping variants analysed over a stdio model server."""

    name = "wire"
    has_servers = True
    models = ("alks_without", "alks_with")

    def __init__(self, horizon: int = 8, sample_budget: int = 1000):
        self.horizon = horizon
        self.sample_budget = sample_budget

    def analyses_per_pass(self) -> int:
        return len(self.models)

    def setup(self, seed: int, record_dir: Path | None = None):
        """Spawn one server per model and complete its ALPHABET handshake."""
        targets = []
        try:
            for model in self.models:
                config = BlackBoxConfig(
                    command=serve_command(model, record_dir),
                    unsafe_outputs=UNSAFE_OUTPUTS, timeout=WIRE_TIMEOUT_S)
                targets.append((model, RemoteSafetyQuery(config),
                                derive(seed, f"wire:{model}")))
        except BaseException:
            self.teardown(targets)
            raise
        return targets

    def run(self, targets):
        for model, target, seed in targets:
            analyze(target, horizon=self.horizon, model_name=model,
                    sample_budget=self.sample_budget, seed=seed)

    def teardown(self, targets):
        for _model, target, _seed in targets:
            target.close()

    def references(self, seed: int):
        """The in-process analyses every wire report must equal."""
        return [(BUNDLED[model](), dict(
            horizon=self.horizon, model_name=model,
            sample_budget=self.sample_budget, seed=derive(seed, f"wire:{model}")))
            for model in self.models]


WORKLOADS = {w.name: w for w in (Table(), Deep(), Wire())}
