"""The output checker applied to every analysis the benchmark makes.

Each check returns a list of problems; an analysis with any problem
counts as failed. The checks:

- soundness against the white-box DP census: ``covered_exact`` never
  exceeds ``exact_safe_paths``;
- the query identity: the target answered exactly
  ``sample_attempts + oracle_sequence_queries + samples`` queries;
- equality with an expected fingerprint: the in-process report for a
  wire analysis, the first pass's report for every later pass.
"""

from __future__ import annotations

from pacreach.analysis import AnalysisReport

from workloads import Analysis

# Only a white-box analysis has the census; wire reports leave it empty.
UNCOMPARED = ("exact_safe_paths", "exact_probability")


def fingerprint(analysis: Analysis) -> dict:
    """Every deterministic report field, plus the answered-query count."""
    data = analysis.report.to_json_dict()
    for key in UNCOMPARED:
        data.pop(key)
    data["stats"].pop("wall_time")
    data["target_queries"] = analysis.queries
    return data


def check_sound(report: AnalysisReport, census: int | None) -> list[str]:
    if report.covered_exact is None or census is None:
        return []
    if report.covered_exact > census:
        return [f"{report.model_name} n={report.horizon}: covered_exact "
                f"{report.covered_exact} exceeds the census {census}"]
    return []


def check_queries(analysis: Analysis) -> list[str]:
    r = analysis.report
    expected = (r.stats.sample_attempts + r.stats.oracle_sequence_queries
                + r.samples)
    if analysis.queries != expected:
        return [f"{r.model_name} n={r.horizon}: target answered "
                f"{analysis.queries} queries, the report accounts for "
                f"{expected}"]
    return []


def check_equal(analysis: Analysis, expected: dict) -> list[str]:
    got = fingerprint(analysis)
    diff = sorted(k for k in expected.keys() | got.keys()
                  if expected.get(k) != got.get(k))
    if diff:
        r = analysis.report
        return [f"{r.model_name} n={r.horizon}: differs from the expected "
                f"report in {', '.join(diff)}"]
    return []


def check_analysis(analysis: Analysis, census: int | None,
                   expected: dict | None) -> list[str]:
    problems = check_sound(analysis.report, census)
    problems += check_queries(analysis)
    if expected is not None:
        problems += check_equal(analysis, expected)
    return problems
