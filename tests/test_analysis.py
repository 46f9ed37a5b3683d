import csv
import io
import json
from dataclasses import asdict

import pytest

from pacreach.analysis import (CSV_COLUMNS, REFERENCE_RESULTS, AnalysisReport,
                               TableReproduction, _count_exact_or_fallback,
                               analyze, reports_to_csv, reports_to_json_lines,
                               reproduce_table)
from pacreach.bounds import required_samples, safety_probability, \
    solve_confidence
from pacreach.errors import ResourceCapError, ValidationError
from pacreach.models import build_alks
from pacreach.monomials import DEFAULT_COUNT_CAP, Monomial, MonomialSet
from pacreach.seeding import derive_seed
from pacreach.sul import MachineSafetyQuery


@pytest.fixture(scope="module")
def wto_report() -> AnalysisReport:
    return analyze(build_alks(False), horizon=3, model_name="alks_without",
                   sample_budget=1000, seed=7)


@pytest.fixture(scope="module")
def table() -> TableReproduction:
    return reproduce_table(seed=7, sample_budget=1000)


def test_report_carries_the_run_description(wto_report):
    r = wto_report
    assert r.format_version == "1"
    assert r.model_name == "alks_without"
    assert (r.horizon, r.alphabet_size, r.total_sequences) == (3, 3, 27)
    assert r.samples == 1000
    assert r.seed == 7
    assert r.oracle_semantics == "all-safe"


def test_report_matches_the_known_row(wto_report):
    r = wto_report
    assert r.covered_exact == r.covered_used == 17
    assert r.learned_probability == pytest.approx(17 / 27)
    assert r.confidence == pytest.approx(0.9596, abs=1e-3)
    assert r.exact_safe_paths == 17
    assert r.exact_probability == pytest.approx(17 / 27)
    assert abs(r.baseline_estimate - 17 / 27) <= 0.1


def test_report_numbers_are_internally_consistent(wto_report):
    r = wto_report
    bound = solve_confidence(r.samples, r.covered_used)
    assert r.confidence == bound.confidence
    assert r.inverse_error == bound.inverse_error
    assert r.learned_probability == safety_probability(
        r.covered_used, r.alphabet_size, r.horizon)
    assert r.covered_formula >= r.covered_exact
    assert not r.covered_is_upper_bound
    assert not r.probability_clipped
    assert r.stats.examples_drawn == r.samples


def test_black_box_targets_get_no_exact_census():
    sul = MachineSafetyQuery(build_alks(False))
    r = analyze(sul, horizon=3, sample_budget=200, seed=3)
    assert r.exact_safe_paths is None
    assert r.exact_probability is None
    assert r.model_name == "MachineSafetyQuery"
    assert r.covered_used >= 1


def test_mode_validation():
    machine = build_alks(False)
    with pytest.raises(ValidationError, match="exactly one"):
        analyze(machine, horizon=3)
    with pytest.raises(ValidationError, match="exactly one"):
        analyze(machine, horizon=3, sample_budget=10, target_confidence=0.9)
    with pytest.raises(ValidationError):
        analyze(machine, horizon=3, sample_budget=0)
    with pytest.raises(ValidationError):
        analyze(machine, horizon=3, target_confidence=1.5)
    with pytest.raises(ValidationError, match="target must be"):
        analyze(42, horizon=3, sample_budget=10)


def test_target_confidence_with_a_covered_bound_sizes_the_budget():
    rate = 1.0 / (1.0 - 0.95)
    r = analyze(build_alks(False), horizon=3, target_confidence=0.95,
                d_bound=17, seed=7)
    assert r.samples == required_samples(rate, 17)
    assert r.confidence >= 0.95


def test_target_confidence_without_a_bound_doubles_until_reached():
    r = analyze(build_alks(False), horizon=3, target_confidence=0.9, seed=7)
    assert r.confidence >= 0.9
    base = required_samples(1.0 / (1.0 - 0.9), 0)
    assert r.samples in {base * 2 ** k for k in range(8)}


def test_target_confidence_doubling_eventually_gives_up(monkeypatch):
    monkeypatch.setattr("pacreach.analysis.MAX_CONFIDENCE_ROUNDS", 1)
    with pytest.raises(ResourceCapError, match="doubling rounds"):
        analyze(build_alks(False), horizon=3, target_confidence=0.99,
                seed=7)


def test_count_cap_degrades_to_the_formula_upper_bound(monkeypatch):
    # frozen run: at this row seed the learner produces 53 monomials
    # covering 99 distinct sequences, formula count 111
    machine = build_alks(False)
    seed = derive_seed(7, "row:alks_without:n=5")
    full = analyze(machine, horizon=5, sample_budget=1000, seed=seed)
    assert (full.covered_exact, full.covered_formula) == (99, 111)

    monkeypatch.setattr("pacreach.analysis.DEFAULT_COUNT_CAP", 10)
    capped = analyze(machine, horizon=5, sample_budget=1000, seed=seed)
    assert capped.covered_exact is None
    assert capped.covered_used == capped.covered_formula == 111
    assert capped.covered_is_upper_bound
    assert not capped.probability_clipped
    assert capped.learned_probability == safety_probability(111, 3, 5)
    assert capped.confidence == solve_confidence(1000, 111).confidence


def test_fallback_clips_the_count_at_the_sequence_total():
    # overlapping members whose formula count exceeds the total number
    # of sequences: the usable count clips to the total
    members = []
    for a in "xyz":
        for b in "xyz":
            for p, q in ((1, 2), (2, 3), (1, 3)):
                members.append(Monomial.from_map(3, {p: a, q: b}))
    learned = MonomialSet(3, tuple(members[:22]))
    assert learned.count_formula(3) > 27
    exact, used, upper, clipped = _count_exact_or_fallback(
        learned, ("x", "y", "z"), learned.count_formula(3), 3 ** 3,
        count_cap=1)
    assert exact is None
    assert used == 27
    assert upper and clipped


def test_adversarial_set_hits_the_default_cap_and_is_flagged():
    # each member binds position i and i + 20 to one symbol, so the live
    # set after 20 positions records every choice: 2^20 walk states
    n = 40
    learned = MonomialSet(n, tuple(
        Monomial.from_map(n, {i: s, i + 20: s})
        for i in range(1, 21) for s in "ab"))
    exact, used, upper, clipped = _count_exact_or_fallback(
        learned, ("a", "b"), learned.count_formula(2), 2 ** n,
        count_cap=DEFAULT_COUNT_CAP)
    assert exact is None
    assert used == 2 ** n
    assert upper and clipped


def test_csv_round_trips_every_column(wto_report):
    text = reports_to_csv([wto_report])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 2
    row = dict(zip(CSV_COLUMNS, rows[1]))
    assert row["model"] == "alks_without"
    assert int(row["covered_exact"]) == 17
    assert float(row["confidence"]) == wto_report.confidence
    assert float(row["learned_probability"]) == \
        wto_report.learned_probability
    assert row["covered_is_upper_bound"] == "False"
    assert int(row["examples_drawn"]) == 1000


def test_csv_empty_cells_for_black_box_runs():
    sul = MachineSafetyQuery(build_alks(True))
    r = analyze(sul, horizon=3, sample_budget=100, seed=1)
    row = dict(zip(CSV_COLUMNS,
                   list(csv.reader(io.StringIO(reports_to_csv([r]))))[1]))
    assert row["exact_safe_paths"] == ""
    assert row["exact_probability"] == ""


def test_json_lines_parse_and_carry_the_stats(wto_report):
    lines = reports_to_json_lines([wto_report, wto_report]).splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert record["model_name"] == "alks_without"
    assert record["covered_exact"] == 17
    assert record["stats"]["examples_drawn"] == 1000
    assert "wall_time" in record["stats"]


def test_analysis_is_deterministic_up_to_wall_time(wto_report):
    again = analyze(build_alks(False), horizon=3, model_name="alks_without",
                    sample_budget=1000, seed=7)

    def normalized(report):
        data = asdict(report)
        data["stats"]["wall_time"] = 0.0
        return data

    assert normalized(wto_report) == normalized(again)
    assert reports_to_csv([wto_report]) == reports_to_csv([again])


def test_table_reproduction_is_green(table):
    assert table.all_ok
    checked = [c for c in table.checks if c.tolerance is not None]
    assert all(c.ok for c in checked)


def test_table_reproduction_shape(table):
    assert len(table.reports) == 8
    assert len(table.checks) == 32
    expected = [(m, n) for m in ("alks_without", "alks_with")
                for n in (3, 4, 5, 10)]
    assert [(r.model_name, r.horizon) for r in table.reports] == expected
    for r in table.reports:
        assert r.seed == derive_seed(7, f"row:{r.model_name}:n={r.horizon}")
        assert r.samples == 1000


def test_table_reproduction_marks_degraded_cells_informational(table):
    info = [(c.model_name, c.horizon, c.column)
            for c in table.checks if c.tolerance is None]
    assert info == [
        ("alks_without", 10, "covered"),
        ("alks_without", 10, "learned_probability"),
        ("alks_with", 10, "covered"),
        ("alks_with", 10, "learned_probability"),
    ]


def test_table_reproduction_recovers_the_reference_counts(table):
    by_key = {(r.model_name, r.horizon): r for r in table.reports}
    for (model, horizon), ref in REFERENCE_RESULTS.items():
        report = by_key[(model, horizon)]
        if horizon <= 5:
            assert report.covered_used == ref["covered"]
        assert abs(report.confidence - ref["confidence"]) <= 0.01


def test_table_reproduction_artifacts(table):
    assert table.csv_text.startswith(",".join(CSV_COLUMNS))
    assert table.csv_text.count("\n") == 9
    assert "coffee" in table.diff_text
    assert "within tolerance" in table.diff_text
    assert "OFF" not in table.diff_text
