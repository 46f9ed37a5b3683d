"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from its
``src/`` directory. One run measures one workload in this interpreter:
it repeats the workload's pass (at least once) as long as the next
one is expected to end within ``--seconds``. ``--workload all``
runs every workload, each in a fresh interpreter.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``norm_wall_s``: the fastest pass's seconds from the first analysis
  call to the last return, set-up excluded, normalized to a fixed host
  speed by `yardstick`; the median pass and the raw seconds are
  printed too. The fastest, not the median: about a third of ``wire``
  passes run some 25 % slower than the others, also with client and
  servers pinned to one CPU, and slow passes come in streaks, so the
  median of a run's four or five passes switches between the two
  modes from run to run. Apart from that, the normalized passes of
  one run differ by a few percent, so the fastest is steady;
- ``setup_s``: median over fresh interpreters of the seconds to import
  the package and build the pass's inputs (for ``wire``: spawn the
  model servers and finish their ALPHABET handshakes), normalized to
  the same host speed by yardstick loops timed just before and after;
- ``target_queries``: the queries the targets answered in one pass;
- ``peak_rss_mb``: this process's peak resident set size, less the
  yardstick's buffer, which stays resident from start to end.

The fifth end-to-end metric, failed analyses over attempted ones, is
printed as ``failed_ratio`` and carried by the ``failed`` and
``attempted`` fields of the result. It is 0 on a working program, and
the result line only carries metrics that never read 0.

With ``--trace 1`` untraced and traced passes alternate, and the run
reports the per-layer metrics of `tracing.LAYER_METRICS` (medians over
the traced passes) plus the tracing overhead.

Every analysis is checked (see `checks`); the last line of output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from yardstick import BUFFER_MIB, Yardstick, at_reference_speed, time_loops

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("table", "deep", "wire")
SETUP_PROBES = 9
SETUP_LOOPS = 5  # yardstick loops on each side of a set-up probe
PROBE_TIMEOUT_S = 60


def use_checkout_sources():
    """Import `pacreach` from this checkout, here and in every child."""
    if not (SRC / "pacreach" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)


def probe_setup(name: str, seed: int):
    """Time one set-up in this fresh interpreter, package import included."""
    loops = [time_loops() for _ in range(SETUP_LOOPS)]
    t0 = perf_counter()
    import workloads  # imported here so that the package import is timed
    workload = workloads.WORKLOADS[name]
    state = workload.setup(seed)
    elapsed = perf_counter() - t0
    workload.teardown(state)
    loops += [time_loops() for _ in range(SETUP_LOOPS)]
    print(json.dumps({"setup_s": at_reference_speed(elapsed, loops),
                      "raw_s": elapsed}))


def setup_times(name: str, seed: int, probes: int) -> list[dict]:
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        times.append(json.loads(out.stdout.splitlines()[-1]))
    return times


@dataclass
class Pass:
    wall_s: float
    norm_wall_s: float
    traced: bool
    analyses: list = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)
    tables: list = field(default_factory=list)
    layers: dict | None = None
    error: str | None = None


def run_pass(workload, seed, tap, tracer=None):
    """One pass; returns (wall_s, norm_wall_s, analyses, run result,
    wire record totals).

    An untraced pass runs the `yardstick` in its timed window; its
    ``wall_s`` leaves the yardstick's time out. A traced pass does not,
    so that no span covers yardstick time; its two times are equal.
    """
    record_dir = None
    if tracer is not None and workload.has_servers:
        record_dir = Path(tempfile.mkdtemp(prefix=".records-", dir=HERE))
    try:
        state = workload.setup(seed, record_dir)
        stick = Yardstick() if tracer is None else None
        try:
            with tap.capture() as analyses, \
                    (tracer.installed() if tracer else stick.running()):
                t0 = perf_counter()
                result = workload.run(state)
                wall = perf_counter() - t0
        finally:
            workload.teardown(state)
        norm = wall
        if stick is not None:
            wall, norm = stick.program_s(wall), stick.normalize(wall)
        totals: dict[str, int] = {}
        if record_dir is not None:
            records = [json.loads(p.read_text())
                       for p in sorted(record_dir.glob("*.json"))]
            for rec in records:
                for key, value in rec.items():
                    totals[key] = totals.get(key, 0) + value
            totals["sessions"] = len(records)
        return wall, norm, analyses, result, totals
    finally:
        if record_dir is not None:
            shutil.rmtree(record_dir, ignore_errors=True)


class Runner:
    """Measures one workload at one seed and checks every analysis."""

    def __init__(self, workload, seed: int):
        import checks
        import workloads
        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.tap = workloads.Tap()
        self.expected: list[dict] | None = None
        self.census: list[int | None] | None = None

    def reference(self):
        """In-process reports the wire reports must equal (untimed)."""
        import workloads
        refs = self.workload.references(self.seed)
        if refs is None:
            return
        with self.tap.capture() as analyses:
            for machine, kwargs in refs:
                workloads.analyze(machine, **kwargs)
        self.expected = [self.checks.fingerprint(a) for a in analyses]
        self.census = [a.report.exact_safe_paths for a in analyses]

    def one_pass(self, traced: bool) -> Pass:
        from tracing import Tracer, layer_metrics
        tracer = Tracer() if traced else None
        try:
            wall, norm, analyses, result, wire = run_pass(
                self.workload, self.seed, self.tap, tracer)
        except Exception:
            return Pass(0.0, 0.0, traced, error=traceback.format_exc())
        p = Pass(wall, norm, traced, analyses, tables=result or [])
        want = self.workload.analyses_per_pass()
        if len(analyses) != want:
            p.error = f"pass made {len(analyses)} analyses, expected {want}"
            return p
        first = self.expected is None
        if first:
            self.expected = [None] * want
        for i, a in enumerate(analyses):
            census = a.report.exact_safe_paths
            if census is None and self.census is not None:
                census = self.census[i]
            p.problems.append(
                self.checks.check_analysis(a, census, self.expected[i]))
        if first:
            self.expected = [self.checks.fingerprint(a) for a in analyses]
        if tracer is not None:
            fallbacks = sum(a.report.covered_is_upper_bound for a in analyses)
            p.layers = layer_metrics(tracer, fallbacks, wire)
            p.layers["trace.wall_s"] = wall
            if wire:
                p.problems[0] += self.check_round_trips(analyses, wire)
        return p

    def check_round_trips(self, analyses, wire: dict) -> list[str]:
        """Each answered query is a RESET plus n STEPs; one ALPHABET per session."""
        expected = sum((a.report.horizon + 1) * a.queries for a in analyses)
        expected += wire["sessions"]
        if wire["requests"] != expected or wire["alphabet"] != wire["sessions"]:
            return [f"wire: {wire['requests']} round trips over "
                    f"{wire['sessions']} sessions, expected {expected}"]
        return []

    def measure(self, seconds: float, traced: bool) -> list[Pass]:
        self.tap.install()
        try:
            self.reference()
            passes: list[Pass] = []
            start = perf_counter()
            rounds = 0
            while True:
                passes.append(self.one_pass(False))
                if traced and passes[-1].error is None:
                    passes.append(self.one_pass(True))
                rounds += 1
                elapsed = perf_counter() - start
                if passes[-1].error is not None \
                        or elapsed + elapsed / rounds > seconds:
                    return passes
        finally:
            self.tap.uninstall()


def summarize(workload, seed: int, seconds: float, traced: bool,
              probes: int) -> tuple[list[str], dict]:
    """Measure and check one workload; returns (report lines, result)."""
    from pacreach.analysis import reports_to_csv
    from tracing import LAYER_METRICS, median_metrics

    name = workload.name
    runner = Runner(workload, seed)
    passes = runner.measure(seconds, traced)
    lines = [f"workload {name}  seed {seed}  "
             f"tracing {'on' if traced else 'off'}  passes {len(passes)}"]
    attempted = failed = 0
    for p in passes:
        per_pass = workload.analyses_per_pass()
        attempted += per_pass
        if p.error is not None:
            failed += per_pass
            lines.append(f"  FAILED pass: {p.error.strip()}")
            continue
        bad = [probs for probs in p.problems if probs]
        failed += len(bad)
        lines.extend(f"  FAILED check: {msg}" for probs in bad for msg in probs)

    metrics: dict[str, dict] = {}
    untraced = [p for p in passes if not p.traced and p.error is None]
    traced_ok = [p for p in passes if p.traced and p.error is None]
    if untraced:
        first = untraced[0]
        walls = [p.wall_s for p in untraced]
        digest = hashlib.sha256(reports_to_csv(
            [a.report for a in first.analyses]).encode()).hexdigest()
        lines.append(f"  reports csv sha256 {digest}")
        if first.tables:
            ok = sum(t.all_ok for t in first.tables)
            lines.append(f"  table reproduction all_ok at {ok} of "
                         f"{len(first.tables)} master seeds (reported, "
                         f"not gated)")
        wall = statistics.median(walls)
        norms = [p.norm_wall_s for p in untraced]
        if not traced:
            setups = setup_times(name, seed, probes)
            metrics = {
                "norm_wall_s": _metric(min(norms), "s"),
                "setup_s": _metric(statistics.median(
                    t["setup_s"] for t in setups), "s"),
                "target_queries": _metric(
                    sum(a.queries for a in first.analyses), "count"),
                "peak_rss_mb": _metric(resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024 - BUFFER_MIB,
                    "MiB"),
            }
            raw_setup = statistics.median(t["raw_s"] for t in setups)
            notes = {"norm_wall_s": f"fastest of {len(norms)} passes, median "
                                    f"{statistics.median(norms):.4f} max "
                                    f"{max(norms):.4f}; raw wall_s median "
                                    f"{wall:.4f} min {min(walls):.4f} max "
                                    f"{max(walls):.4f}",
                     "setup_s": f"median of {len(setups)} fresh "
                                f"interpreters; raw median {raw_setup:.4f}"}
            for key, m in metrics.items():
                lines.append(f"  {key:16} {m['value']:>14.6g} {m['unit']:6} "
                             f"{notes.get(key, '')}")
    ratio = failed / attempted if attempted else 1.0
    lines.append(f"  {'failed_ratio':16} {ratio:>14.6g} {'ratio':6} "
                 f"{failed} of {attempted} analyses failed")
    if traced and traced_ok and untraced:
        layers = median_metrics([p.layers for p in traced_ok])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        for spec in LAYER_METRICS:
            metrics[spec.name] = _metric(layers[spec.name], spec.unit)
            lines.append(f"  {spec.name:34} {layers[spec.name]:>14.6g} "
                         f"{spec.unit:6} | {spec.moves}")
        lines.extend(_shares(layers))
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _shares(layers: dict) -> list[str]:
    """The layer shares each workload was chosen to stress."""
    wall = layers["trace.wall_s"]
    oracle_count = (layers["learner.query_oracle.busy_s"]
                    + layers["monomials.count_exact.busy_s"])
    upkeep = layers["monomials.implies.busy_s"] + layers["monomials.add.busy_s"]
    return [f"  share of traced wall_s: query_oracle + count_exact "
            f"{oracle_count / wall:.1%}, implies + add {upkeep / wall:.1%}"]


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_sources()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0
    import workloads
    lines, result = summarize(workloads.WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), SETUP_PROBES)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
