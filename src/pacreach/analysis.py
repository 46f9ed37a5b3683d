"""End-to-end analysis runs and the results-table reproduction.

One `analyze` call is the whole pipeline: learn the safe-path set,
count what it covers (both ways), turn the count into a probability and
a confidence level, and run the Monte Carlo baseline with the same
budget for comparison. White-box targets additionally get the exact
dynamic-programming census.

`reproduce_table` replays the eight published lane-keeping rows
(both variants, horizons 3, 4, 5, 10, budget 1000) against fixed
derived seeds and diffs the outcome against the previously reported
numbers, cell by cell, with per-cell tolerances: deterministic cells
tight, sampling-noise cells loose, and the known-degraded horizon-10
learner cells informational only.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from typing import Sequence

from .baselines import exact_count_dp, monte_carlo
from .bounds import safety_probability, solve_confidence, required_samples
from .errors import ResourceCapError, ValidationError
from .learner import (LearnerConfig, LearnerStats, ORACLE_ALL_SAFE,
                      learn_safe_set)
from .mealy import MealyMachine
from .models import BUNDLED
from .monomials import DEFAULT_COUNT_CAP, MonomialSet
from .seeding import derive_seed
from .sul import MachineSafetyQuery, SafetyQuery

__all__ = ["AnalysisReport", "CellCheck", "TableReproduction", "analyze",
           "reproduce_table", "reports_to_csv", "reports_to_json_lines",
           "REFERENCE_RESULTS"]

FORMAT_VERSION = "1"

DEFAULT_SEED = 7

MAX_CONFIDENCE_ROUNDS = 8  # budget doublings in target-confidence mode

TABLE_MODELS = ("alks_without", "alks_with")
TABLE_HORIZONS = (3, 4, 5, 10)
TABLE_BUDGET = 1000

# Previously reported results the reproduction run is diffed against:
# per (model, horizon), the covered-path count, the confidence level,
# the learned probability and the random-sampling baseline.
REFERENCE_RESULTS = {
    ("alks_without", 3): {"covered": 17, "confidence": 0.96,
                          "learned_probability": 0.63,
                          "baseline_estimate": 0.634},
    ("alks_without", 4): {"covered": 41, "confidence": 0.91,
                          "learned_probability": 0.51,
                          "baseline_estimate": 0.507},
    ("alks_without", 5): {"covered": 99, "confidence": 0.80,
                          "learned_probability": 0.41,
                          "baseline_estimate": 0.42},
    ("alks_without", 10): {"covered": 952, "confidence": 0.00,
                           "learned_probability": 0.02,
                           "baseline_estimate": 0.12},
    ("alks_with", 3): {"covered": 23, "confidence": 0.95,
                       "learned_probability": 0.85,
                       "baseline_estimate": 0.87},
    ("alks_with", 4): {"covered": 71, "confidence": 0.85,
                       "learned_probability": 0.88,
                       "baseline_estimate": 0.88},
    ("alks_with", 5): {"covered": 207, "confidence": 0.58,
                       "learned_probability": 0.85,
                       "baseline_estimate": 0.86},
    ("alks_with", 10): {"covered": 988, "confidence": 0.00,
                        "learned_probability": 0.02,
                        "baseline_estimate": 0.87},
}

# The reported covered count for the coffee case study; our
# reconstruction of that machine is best-effort, so its count is
# printed for comparison, never asserted.
COFFEE_REFERENCE_COVERED = 272


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one analysis run produced (one table row)."""

    format_version: str
    model_name: str
    horizon: int
    alphabet_size: int
    total_sequences: int
    samples: int
    covered_formula: int
    covered_exact: int | None
    covered_used: int
    covered_is_upper_bound: bool
    probability_clipped: bool
    learned_probability: float
    baseline_estimate: float
    baseline_std_error: float
    exact_safe_paths: int | None
    exact_probability: float | None
    confidence: float
    inverse_error: float
    seed: int
    oracle_semantics: str
    stats: LearnerStats

    def to_json_dict(self) -> dict:
        data = asdict(self)
        return data


CSV_COLUMNS = [
    "format_version", "model", "horizon", "alphabet_size",
    "total_sequences", "samples", "covered_formula", "covered_exact",
    "covered_used", "covered_is_upper_bound", "probability_clipped",
    "learned_probability", "baseline_estimate", "baseline_std_error",
    "exact_safe_paths", "exact_probability", "confidence", "inverse_error",
    "seed", "oracle_semantics", "examples_drawn",
    "examples_skipped_implied", "sample_attempts", "oracle_calls",
    "oracle_sequence_queries",
]


def _csv_row(report: AnalysisReport) -> list:
    s = report.stats
    return [
        report.format_version, report.model_name, report.horizon,
        report.alphabet_size, report.total_sequences, report.samples,
        report.covered_formula,
        "" if report.covered_exact is None else report.covered_exact,
        report.covered_used, report.covered_is_upper_bound,
        report.probability_clipped, repr(report.learned_probability),
        repr(report.baseline_estimate), repr(report.baseline_std_error),
        "" if report.exact_safe_paths is None else report.exact_safe_paths,
        "" if report.exact_probability is None
        else repr(report.exact_probability),
        repr(report.confidence), repr(report.inverse_error), report.seed,
        report.oracle_semantics, s.examples_drawn,
        s.examples_skipped_implied, s.sample_attempts, s.oracle_calls,
        s.oracle_sequence_queries,
    ]


def reports_to_csv(reports: Sequence[AnalysisReport]) -> str:
    """Render reports as CSV; deterministic byte-for-byte given the
    same reports (floats use shortest round-trip repr)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        writer.writerow(_csv_row(report))
    return buf.getvalue()


def reports_to_json_lines(reports: Sequence[AnalysisReport]) -> str:
    return "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n"
                   for r in reports)


def _count_exact_or_fallback(learned: MonomialSet, alphabet: tuple[str, ...],
                             formula: int, total: int, count_cap: int
                             ) -> tuple[int | None, int, bool, bool]:
    """Returns (exact, used, is_upper_bound, clipped)."""
    try:
        exact = learned.count_exact(alphabet, cap=count_cap)
        return exact, exact, False, False
    except ResourceCapError:
        used = min(formula, total)
        return None, used, True, formula > total


def _run_one(sul: SafetyQuery, machine: MealyMachine | None, model_name: str,
             horizon: int, sample_budget: int, seed: int, learner_seed: int,
             mc_seed: int, oracle_semantics: str) -> AnalysisReport:
    cfg = LearnerConfig(
        horizon=horizon, sample_budget=sample_budget, rng_seed=learner_seed,
        oracle_semantics=oracle_semantics)
    learned, stats = learn_safe_set(sul, cfg)
    alphabet = sul.input_alphabet
    total = len(alphabet) ** horizon
    formula = learned.count_formula(len(alphabet))
    exact, used, upper, clipped = _count_exact_or_fallback(
        learned, alphabet, formula, total, DEFAULT_COUNT_CAP)
    bound = solve_confidence(sample_budget, used)
    baseline = monte_carlo(sul, horizon, sample_budget, mc_seed)
    exact_paths = exact_prob = None
    if machine is not None:
        census = exact_count_dp(machine, horizon)
        exact_paths, exact_prob = census.safe_paths, census.probability
    return AnalysisReport(
        format_version=FORMAT_VERSION,
        model_name=model_name,
        horizon=horizon,
        alphabet_size=len(alphabet),
        total_sequences=total,
        samples=sample_budget,
        covered_formula=formula,
        covered_exact=exact,
        covered_used=used,
        covered_is_upper_bound=upper,
        probability_clipped=clipped,
        learned_probability=safety_probability(used, len(alphabet), horizon),
        baseline_estimate=baseline.estimate,
        baseline_std_error=baseline.std_error,
        exact_safe_paths=exact_paths,
        exact_probability=exact_prob,
        confidence=bound.confidence,
        inverse_error=bound.inverse_error,
        seed=seed,
        oracle_semantics=oracle_semantics,
        stats=stats,
    )


def analyze(target, *, horizon: int, model_name: str | None = None,
            sample_budget: int | None = None,
            target_confidence: float | None = None,
            d_bound: int | None = None, seed: int = DEFAULT_SEED,
            oracle_semantics: str = ORACLE_ALL_SAFE) -> AnalysisReport:
    """Full pipeline against a machine (white-box) or a SafetyQuery.

    Exactly one of ``sample_budget`` and ``target_confidence`` selects
    the mode. Budget mode runs once. Target-confidence mode sizes the
    budget from the bound, which needs the covered-count's magnitude up
    front: pass ``d_bound`` as an upper estimate, or leave it out to let
    the budget be doubled until the achieved confidence reaches the
    target (at most ``MAX_CONFIDENCE_ROUNDS`` runs).
    """
    if isinstance(target, MealyMachine):
        machine: MealyMachine | None = target
        sul: SafetyQuery = MachineSafetyQuery(target)
    elif isinstance(target, SafetyQuery):
        machine = None
        sul = target
    else:
        raise ValidationError(
            f"target must be a MealyMachine or SafetyQuery, got "
            f"{type(target).__name__}")
    if model_name is None:
        model_name = type(target).__name__
    if (sample_budget is None) == (target_confidence is None):
        raise ValidationError(
            "exactly one of sample_budget / target_confidence must be given")

    def run(budget: int, label: str) -> AnalysisReport:
        return _run_one(
            sul, machine, model_name, horizon, budget, seed,
            learner_seed=derive_seed(seed, f"learner:{label}"),
            mc_seed=derive_seed(seed, f"monte-carlo:{label}"),
            oracle_semantics=oracle_semantics)

    if sample_budget is not None:
        if sample_budget < 1:
            raise ValidationError("sample budget must be >= 1")
        return run(sample_budget, "main")

    if not 0.0 < target_confidence < 1.0:
        raise ValidationError(
            f"target confidence must lie in (0, 1), got {target_confidence}")
    rate = 1.0 / (1.0 - target_confidence)
    if d_bound is not None:
        return run(required_samples(rate, d_bound), "main")
    # No covered-count bound given: double the budget until the achieved
    # confidence catches up with the target.
    budget = required_samples(rate, 0)
    for round_no in range(MAX_CONFIDENCE_ROUNDS):
        report = run(budget, f"round{round_no}")
        if report.confidence >= target_confidence:
            return report
        budget *= 2
    raise ResourceCapError(
        f"confidence {target_confidence} not reached within "
        f"{MAX_CONFIDENCE_ROUNDS} doubling rounds (budget reached "
        f"{budget}); pass d_bound or lower the target")


@dataclass(frozen=True)
class CellCheck:
    """One reproduced cell next to its reference value."""

    model_name: str
    horizon: int
    column: str
    ours: float
    reference: float
    tolerance: float | None  # None: informational, not checked
    ok: bool


@dataclass(frozen=True)
class TableReproduction:
    reports: tuple[AnalysisReport, ...]
    checks: tuple[CellCheck, ...]
    csv_text: str
    diff_text: str
    all_ok: bool


def _check_row(report: AnalysisReport) -> list[CellCheck]:
    ref = REFERENCE_RESULTS[(report.model_name, report.horizon)]
    # Horizon 10 is where the sample budget is known to undercover the
    # safe set; those learner cells are reported, not checked.
    deterministic = report.horizon <= 5
    plan = [
        ("covered", report.covered_used, ref["covered"],
         0.0 if deterministic else None),
        ("confidence", report.confidence, ref["confidence"], 0.01),
        ("learned_probability", report.learned_probability,
         ref["learned_probability"], 0.01 if deterministic else None),
        ("baseline_estimate", report.baseline_estimate,
         ref["baseline_estimate"], 0.10),
    ]
    checks = []
    for column, ours, reference, tol in plan:
        ours, reference = float(ours), float(reference)
        ok = tol is None or abs(ours - reference) <= tol
        checks.append(CellCheck(report.model_name, report.horizon, column,
                                ours, reference, tol, ok))
    return checks


def _diff_text(checks: Sequence[CellCheck], coffee_lines: Sequence[str]) -> str:
    lines = ["cell-by-cell diff against the previously reported results",
             ""]
    header = (f"{'model':14} {'n':>3} {'column':22} {'ours':>12} "
              f"{'reference':>10} {'tol':>6} status")
    lines.append(header)
    lines.append("-" * len(header))
    for c in checks:
        if c.tolerance is None:
            status, tol = "info", "-"
        else:
            status = "ok" if c.ok else "OFF"
            tol = f"{c.tolerance:g}"
        ours = f"{c.ours:.6g}"
        lines.append(f"{c.model_name:14} {c.horizon:>3} {c.column:22} "
                     f"{ours:>12} {c.reference:>10g} {tol:>6} {status}")
    lines.append("")
    lines.extend(coffee_lines)
    checked = [c for c in checks if c.tolerance is not None]
    bad = [c for c in checked if not c.ok]
    lines.append("")
    if bad:
        lines.append(f"{len(bad)} of {len(checked)} checked cells out of "
                     f"tolerance")
    else:
        lines.append(f"all {len(checked)} checked cells within tolerance")
    return "\n".join(lines) + "\n"


def reproduce_table(seed: int = DEFAULT_SEED,
                    sample_budget: int = TABLE_BUDGET,
                    include_coffee_note: bool = True) -> TableReproduction:
    """Re-run the eight lane-keeping table rows and diff the results.

    Each row derives its own seed from the master seed and the row
    label, so rows are independent and individually reproducible.
    """
    reports = []
    checks: list[CellCheck] = []
    for model_name in TABLE_MODELS:
        machine = BUNDLED[model_name]()
        for horizon in TABLE_HORIZONS:
            row_seed = derive_seed(seed, f"row:{model_name}:n={horizon}")
            report = analyze(
                machine, horizon=horizon, model_name=model_name,
                sample_budget=sample_budget, seed=row_seed)
            reports.append(report)
            checks.extend(_check_row(report))

    coffee_lines: list[str] = []
    if include_coffee_note:
        coffee = BUNDLED["coffee"]()
        coffee_seed = derive_seed(seed, "row:coffee:n=5")
        coffee_report = analyze(coffee, horizon=5, model_name="coffee",
                                sample_budget=sample_budget,
                                seed=coffee_seed)
        coffee_lines = [
            "coffee machine (best-effort reconstruction, not asserted):",
            f"  learned covered count at n=5: "
            f"{coffee_report.covered_used}",
            f"  exact safe paths of the reconstruction: "
            f"{coffee_report.exact_safe_paths}",
            f"  previously reported count: {COFFEE_REFERENCE_COVERED}",
        ]

    csv_text = reports_to_csv(reports)
    all_ok = all(c.ok for c in checks if c.tolerance is not None)
    return TableReproduction(
        reports=tuple(reports),
        checks=tuple(checks),
        csv_text=csv_text,
        diff_text=_diff_text(checks, coffee_lines),
        all_ok=all_ok,
    )
