import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from pacreach import analysis
from pacreach.analysis import (CSV_COLUMNS, REFERENCE_RESULTS, AnalysisReport,
                               CellCheck, TableReproduction,
                               _count_exact_or_fallback, _diff_text,
                               analyze, reports_to_csv, reports_to_json_lines,
                               reproduce_table)
from pacreach.bounds import required_samples, safety_probability, \
    solve_confidence
from pacreach.errors import ResourceCapError, ValidationError
from pacreach.learner import LearnerConfig, learn_safe_set
from pacreach.models import BUNDLED, build_alks
from pacreach.monomials import Monomial, MonomialSet
from pacreach.seeding import derive_seed
from pacreach.sul import MachineSafetyQuery
from pacreach.wire import BlackBoxConfig, RemoteSafetyQuery


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


def test_d_bound_without_target_confidence_is_rejected():
    with pytest.raises(ValidationError, match="d_bound"):
        analyze(build_alks(False), horizon=3, sample_budget=50, d_bound=5)


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


def test_doubling_runs_the_baseline_and_census_once(monkeypatch):
    calls = {"learn_safe_set": 0, "monte_carlo": 0, "exact_count_dp": 0}

    def counted(name):
        original = getattr(analysis, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(analysis, name, counted(name))
    analyze(build_alks(False), horizon=3, target_confidence=0.9, seed=7)
    assert calls == {"learn_safe_set": 5, "monte_carlo": 1,
                     "exact_count_dp": 1}


def test_doubling_target_answers_the_learner_rounds_and_one_baseline():
    # the rounds continue one learner run, so sizing asks the target
    # exactly what budget mode asks at the returned samples
    target = MachineSafetyQuery(build_alks(False))
    r = analyze(target, horizon=3, target_confidence=0.9, seed=7)
    base = required_samples(1.0 / (1.0 - 0.9), 0)
    assert r.samples == base * 2 ** 4
    budget = MachineSafetyQuery(build_alks(False))
    analyze(budget, horizon=3, sample_budget=r.samples, seed=7)
    fresh = MachineSafetyQuery(build_alks(False))
    learn_safe_set(fresh, LearnerConfig(
        horizon=3, sample_budget=r.samples,
        rng_seed=derive_seed(7, "learner:main")))
    assert target.query_count == budget.query_count == \
        fresh.query_count + r.samples == 2046


def test_a_d_bound_below_the_learned_count_still_reaches_the_target():
    # the bound's budget for 5 covered paths buys 0.88 at the 17 learned
    # ones, so the budget doubles from there
    r = analyze(build_alks(False), horizon=3, target_confidence=0.95,
                d_bound=5, seed=7)
    base = required_samples(1.0 / (1.0 - 0.95), 5)
    assert r.covered_used == 17 and r.confidence >= 0.95
    assert r.samples in {base * 2 ** k for k in range(1, 8)}


@pytest.mark.parametrize("counts, message", [
    ({"horizon": True, "sample_budget": 10}, "horizon must be an int"),
    ({"horizon": 3.0, "sample_budget": 10}, "horizon must be an int"),
    ({"horizon": 3, "sample_budget": True}, "sample_budget must be an int"),
    ({"horizon": 3, "sample_budget": 10.5}, "sample_budget must be an int"),
    ({"horizon": True, "target_confidence": 0.9}, "horizon must be an int"),
])
def test_a_count_that_is_not_an_int_never_reaches_the_report(counts,
                                                             message):
    target = MachineSafetyQuery(build_alks(False))
    with pytest.raises(ValidationError, match=f"^{message}"):
        analyze(target, seed=7, **counts)
    assert target.query_count == 0


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

    monkeypatch.setattr("pacreach.monomials.DEFAULT_COUNT_CAP", 10)
    capped = analyze(machine, horizon=5, sample_budget=1000, seed=seed)
    assert capped.covered_exact is None
    assert capped.covered_used == capped.covered_formula == 111
    assert capped.covered_is_upper_bound
    assert not capped.probability_clipped
    assert capped.learned_probability == safety_probability(111, 3, 5)
    assert capped.confidence == solve_confidence(1000, 111).confidence


def test_fallback_clips_the_count_at_the_sequence_total(monkeypatch):
    # overlapping members whose formula count exceeds the total number
    # of sequences: the usable count clips to the total
    members = []
    for a in "xyz":
        for b in "xyz":
            for p, q in ((1, 2), (2, 3), (1, 3)):
                members.append(Monomial(tuple(
                    {p: a, q: b}.get(pos) for pos in (1, 2, 3))))
    learned = MonomialSet(3, tuple(members[:22]))
    assert learned.count_formula(3) > 27
    monkeypatch.setattr("pacreach.monomials.DEFAULT_COUNT_CAP", 1)
    exact, used, upper, clipped = _count_exact_or_fallback(
        learned, ("x", "y", "z"), learned.count_formula(3), 3 ** 3)
    assert exact is None
    assert used == 27
    assert upper and clipped


def test_adversarial_set_hits_the_default_cap_and_is_flagged():
    # each member binds position i and i + 20 to one symbol, so the live
    # set after 20 positions records every choice: 2^20 walk states
    n = 40
    learned = MonomialSet(n, tuple(
        Monomial(tuple(s if pos in (i, i + 20) else None
                       for pos in range(1, n + 1)))
        for i in range(1, 21) for s in "ab"))
    exact, used, upper, clipped = _count_exact_or_fallback(
        learned, ("a", "b"), learned.count_formula(2), 2 ** n)
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


def test_the_diff_marks_a_cell_out_of_tolerance_off():
    checks = [
        CellCheck("alks_without", 3, "covered", 9.0, 9.0, 0.0, True),
        CellCheck("alks_without", 3, "confidence", 0.5, 0.9, 0.01, False),
        CellCheck("alks_without", 10, "covered", 1.0, 2.0, None, False),
    ]
    rows = _diff_text(checks, ["coffee line"]).splitlines()
    assert [row.split()[-1] for row in rows[4:7]] == ["ok", "OFF", "info"]
    assert rows[-1] == "1 of 2 checked cells out of tolerance"


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


def test_table_csv_matches_the_golden_file(table):
    # reproduce_table(seed=7).csv_text, frozen; any byte of drift in a
    # count, a float repr or a query counter shows up here
    golden = Path(__file__).parent / "golden" / "reproduce_table_seed7.csv"
    assert table.csv_text == golden.read_text(encoding="utf-8")


def test_long_horizon_csv_matches_the_golden_file():
    # the n=12 analysis of the benchmark's deep workload, frozen; pins
    # the oracle's verdicts and query counts past the table's horizons
    report = analyze(BUNDLED["alks_with"](), horizon=12,
                     model_name="alks_with", sample_budget=1000, seed=7)
    golden = Path(__file__).parent / "golden" / "alks_with_n12_seed7.csv"
    assert reports_to_csv([report]) == golden.read_text(encoding="utf-8")


# two doubling runs (5 and 6 rounds) and one d_bound run
SIZING_RUNS = [("alks_without", 3, 0.9, None), ("alks_with", 5, 0.8, None),
               ("alks_without", 3, 0.95, 17)]


def test_sizing_mode_csv_matches_the_golden_file():
    # frozen; pins the returned round's budget, learner, baseline and census
    reports = [analyze(BUNDLED[name](), horizon=n, model_name=name,
                       target_confidence=confidence, d_bound=d_bound, seed=7)
               for name, n, confidence, d_bound in SIZING_RUNS]
    golden = Path(__file__).parent / "golden" / "sizing_seed7.csv"
    assert reports_to_csv(reports) == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("name, n, confidence, d_bound", SIZING_RUNS)
def test_a_sizing_report_is_the_budget_mode_report_at_its_samples(
        name, n, confidence, d_bound):
    def run(**mode):
        return analyze(BUNDLED[name](), horizon=n, model_name=name, seed=7,
                       **mode)
    sizing = run(target_confidence=confidence, d_bound=d_bound)
    budget = run(sample_budget=sizing.samples)
    assert reports_to_csv([sizing]) == reports_to_csv([budget])


def test_a_sizing_report_over_the_wire_is_budget_mode_at_its_samples():
    cfg = BlackBoxConfig(command=f"{sys.executable} -m pacreach.cli "
                                 f"serve-model --model alks_without --stdio",
                         unsafe_outputs=frozenset({"alarm"}))

    def run(**mode):
        with RemoteSafetyQuery(cfg) as remote:
            report = analyze(remote, horizon=3, model_name="alks_without",
                             seed=7, **mode)
            return report, (remote.query_count, remote.requests)
    sizing, sizing_cost = run(target_confidence=0.9)
    assert sizing.samples == 752
    budget, budget_cost = run(sample_budget=sizing.samples)
    assert reports_to_csv([sizing]) == reports_to_csv([budget])
    # query_count and request lines: the handshake, then 1 + 3 per query
    assert sizing_cost == budget_cost == (2046, 8185)
