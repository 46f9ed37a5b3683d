"""Self-check of the benchmark harness, at a tiny size (a few seconds).

    python3 perfbench/selfcheck.py

Shows that the output checker rejects doctored reports (an exact count
above the census, a wrong query count, one flipped wire verdict) and
accepts the genuine ones, and that a smoke run of every workload emits
every metric of ``BENCHMARK.json`` with its unit. Exits 1 on any miss.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

failures: list[str] = []


def expect(condition: bool, what: str):
    print(f"{'ok  ' if condition else 'MISS'} {what}")
    if not condition:
        failures.append(what)


def analyse(tap, target, **kwargs):
    import workloads
    with tap.capture() as analyses:
        workloads.analyze(target, **kwargs)
    return analyses[0]


def check_checker():
    import checks
    import workloads
    from pacreach.models import BUNDLED
    from pacreach.wire import BlackBoxConfig, RemoteSafetyQuery

    class FlipFirstVerdict(RemoteSafetyQuery):
        """A black box whose first answer is the wrong way round."""

        flipped = False

        def _answer(self, seq):
            verdict = super()._answer(seq)
            if not self.flipped:
                self.flipped = True
                return not verdict
            return verdict

    tap = workloads.Tap()
    tap.install()
    try:
        kwargs = dict(horizon=4, model_name="alks_without",
                      sample_budget=200, seed=5)
        white = analyse(tap, BUNDLED["alks_without"](), **kwargs)
        census = white.report.exact_safe_paths
        expect(checks.check_analysis(white, census, None) == [],
               "checker accepts a genuine white-box report")
        inflated = dataclasses.replace(white.report, covered_exact=census + 1)
        expect(checks.check_sound(inflated, census) != [],
               "checker rejects covered_exact above the census")
        miscounted = workloads.Analysis(white.report, white.queries + 1)
        expect(checks.check_queries(miscounted) != [],
               "checker rejects a query count the report does not account for")

        expected = checks.fingerprint(white)
        command = workloads.serve_command("alks_without", None)
        config = BlackBoxConfig(command=command,
                                unsafe_outputs=workloads.UNSAFE_OUTPUTS)
        with RemoteSafetyQuery(config) as honest:
            remote = analyse(tap, honest, **kwargs)
        expect(checks.check_analysis(remote, census, expected) == [],
               "checker accepts a wire report equal to the in-process one")
        with FlipFirstVerdict(config) as liar:
            flipped = analyse(tap, liar, **kwargs)
        expect(checks.check_analysis(flipped, census, expected) != [],
               "checker rejects a wire run with one flipped verdict")
    finally:
        tap.uninstall()


def check_smoke():
    import workloads
    from tracing import LAYER_METRICS

    smoke = (workloads.Table(master_seeds=1, sample_budget=200),
             workloads.Deep(horizon=5, sample_budget=200),
             workloads.Wire(horizon=3, sample_budget=200))
    with open(run.HERE.parent / "BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == [(m.name, m.unit, m.better) for m in LAYER_METRICS],
           "BENCHMARK.json per_layer matches tracing.LAYER_METRICS")
    for workload in smoke:
        for traced in (False, True):
            _lines, result = run.summarize(workload, seed=3, seconds=0,
                                           traced=traced, probes=1)
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            label = f"{workload.name} with tracing {'on' if traced else 'off'}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: smoke run is correct")
            expect(units == wanted[traced],
                   f"{label}: emits every metric with its unit")


def main() -> int:
    run.use_checkout_sources()
    check_checker()
    check_smoke()
    print(f"{len(failures)} misses")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
