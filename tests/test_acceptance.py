"""Release gate: one test per headline claim, tolerances pinned inline.

Each test prints a single PASS line (visible with -v or -s); a failing
criterion fails its test and nothing here papers over that. Everything
runs against fixed seeds, so green is reproducible green.
"""

import itertools
import math
import random
import time

import pytest

from pacreach.analysis import reproduce_table
from pacreach.baselines import (exact_count_dp, exact_count_enumerate,
                                monte_carlo)
from pacreach.bounds import (required_samples, safety_probability,
                             solve_confidence)
from pacreach.learner import LearnerConfig, learn_safe_set, query_oracle
from pacreach.models import build_alks, random_machine
from pacreach.monomials import Monomial
from pacreach.seeding import derive_seed
from pacreach.sul import MachineSafetyQuery


@pytest.fixture(scope="module")
def table():
    return reproduce_table(seed=7, sample_budget=1000)


def test_criterion_1_exact_census_matches_the_reported_counts():
    started = time.perf_counter()
    expected = {
        (False, 3): 17, (False, 4): 41, (False, 5): 99,
        (True, 3): 23, (True, 4): 71, (True, 5): 207,
    }
    for (with_assist, n), count in expected.items():
        assert exact_count_dp(build_alks(with_assist), n).safe_paths == count
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: exact counts 17/41/99 and 23/71/207 "
          f"({elapsed:.3f}s)")


def test_criterion_2_learner_recovers_the_counts_across_seeds():
    started = time.perf_counter()
    machine = build_alks(False)
    truth = {3: 17, 4: 41, 5: 99}
    seeds = (1, 2, 3, 4, 5)
    for horizon, expected in truth.items():
        exact_hits = 0
        for seed in seeds:
            sul = MachineSafetyQuery(machine)
            learned, _ = learn_safe_set(
                sul, LearnerConfig(horizon=horizon, sample_budget=1000,
                                   rng_seed=seed))
            if learned.count_exact(sul.input_alphabet) == expected:
                exact_hits += 1
            for seq in itertools.product(sul.input_alphabet,
                                         repeat=horizon):
                if learned.covers(seq):
                    assert machine.trace(seq).safe, \
                        f"unsound at horizon {horizon}, seed {seed}: {seq}"
        assert exact_hits >= 4, \
            f"horizon {horizon}: only {exact_hits}/5 seeds exact"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"PASS criterion 2: 1000-sample learner exact in >= 4/5 seeds "
          f"per horizon, sound in 5/5 ({elapsed:.1f}s)")


def test_criterion_3_learned_probabilities_match_to_a_hundredth(table):
    expected = {
        ("alks_without", 3): 0.63, ("alks_without", 4): 0.51,
        ("alks_without", 5): 0.41,
        ("alks_with", 3): 0.85, ("alks_with", 4): 0.88,
        ("alks_with", 5): 0.85,
    }
    by_key = {(r.model_name, r.horizon): r for r in table.reports}
    for key, reference in expected.items():
        report = by_key[key]
        assert not report.covered_is_upper_bound
        assert abs(report.learned_probability - reference) <= 0.01, \
            f"{key}: {report.learned_probability} vs {reference}"
    print("PASS criterion 3: all six learned probabilities within 0.01")


def test_criterion_4_confidence_solver_reproduces_the_column():
    cells = [(17, 0.96), (41, 0.91), (99, 0.80), (23, 0.95),
             (71, 0.85), (207, 0.58), (952, 0.00), (988, 0.00)]
    solve_confidence(1000, 17)  # warm-up outside the timed region
    started = time.perf_counter()
    for covered, reference in cells:
        bound = solve_confidence(1000, covered)
        assert abs(bound.confidence - reference) <= 0.01, \
            f"d={covered}: {bound.confidence} vs {reference}"
    per_call = (time.perf_counter() - started) / len(cells)
    assert per_call < 1e-3
    print(f"PASS criterion 4: eight confidence cells within 0.01 "
          f"({per_call * 1e6:.0f}us per call)")


def test_criterion_5_worked_example_arithmetic():
    assert required_samples(1.83, 272) == 998
    assert safety_probability(272, 4, 5) == 0.265625
    print("PASS criterion 5: sample size 998 and probability 0.265625, "
          "exactly")


def test_criterion_6_monte_carlo_baseline_behaves():
    truth = 17 / 27
    within = 0
    for rep in range(100):
        mc = monte_carlo(MachineSafetyQuery(build_alks(False)), 3, 1000,
                         derive_seed(7, f"mc-rep:{rep}"))
        if abs(mc.estimate - truth) <= 3 * mc.std_error:
            within += 1
    assert within >= 99, f"only {within}/100 repetitions within 3 sigma"

    exact_10 = exact_count_dp(build_alks(False), 10).probability
    reported = 0.12
    sigma = math.sqrt(reported * (1 - reported) / 1000)
    assert abs(exact_10 - reported) < 3 * sigma
    print(f"PASS criterion 6: {within}/100 baseline runs within 3 sigma; "
          f"exact {exact_10:.4f} consistent with reported 0.12")


def test_criterion_7_long_horizon_underestimation_is_reproduced(table):
    for model in ("alks_without", "alks_with"):
        report = next(r for r in table.reports
                      if (r.model_name, r.horizon) == (model, 10))
        assert report.exact_probability is not None
        assert report.learned_probability < report.exact_probability, model
        assert report.confidence == 0.0, model
    print("PASS criterion 7: at horizon 10 both learned probabilities "
          "undershoot the exact ones and confidence is 0.00")


def test_criterion_8_property_suites():
    started = time.perf_counter()

    # expansion cardinality: a monomial binding l of n positions expands
    # to exactly |alphabet|^(n-l) distinct sequences
    rng = random.Random(0)
    alphabet = ("a", "b", "c")
    for n in range(1, 6):
        for _ in range(20):
            bound = rng.sample(range(1, n + 1), rng.randint(0, n))
            bindings = {p: rng.choice(alphabet) for p in bound}
            mono = Monomial(tuple(bindings.get(p) for p in range(1, n + 1)))
            seqs = list(mono.expand(alphabet))
            assert len(seqs) == len(set(seqs)) == 3 ** (n - len(bound))
            assert mono.expansion_size(3) == len(seqs)

    # the all-safe oracle agrees with brute force on every candidate,
    # exhaustively up to horizon 4
    machine = build_alks(False)
    sul = MachineSafetyQuery(machine)
    for n in range(1, 5):
        for bound_count in range(n + 1):
            for positions in itertools.combinations(range(1, n + 1),
                                                    bound_count):
                for values in itertools.product(sul.input_alphabet,
                                                repeat=bound_count):
                    bindings = dict(zip(positions, values))
                    cand = Monomial(
                        tuple(bindings.get(p) for p in range(1, n + 1)))
                    expected = all(machine.trace(s).safe
                                   for s in cand.expand(sul.input_alphabet))
                    assert query_oracle(sul, cand) is expected

    # dynamic program == enumeration on 50 random machines
    for k in range(50):
        m = random_machine(2 + k % 6, 2 + k % 3, 0.4, seed=500 + k,
                           absorbing_unsafe=(k % 2 == 0))
        n = 2 + k % 5
        while len(m.inputs) ** n > 10_000:
            n -= 1
        assert exact_count_dp(m, n).safe_paths == \
            exact_count_enumerate(m, n).safe_paths

    # learner soundness on 25 random absorbing-unsafe machines: the
    # learned set never covers an unsafe sequence and never counts more
    # than the true census (machines with no safe path at the chosen
    # horizon cannot be sampled and are skipped by the seed scan)
    checked = 0
    seed = 0
    while checked < 25:
        mseed = 9000 + seed
        m = random_machine(3 + seed % 5, 2 + seed % 2, 0.4, seed=mseed,
                           absorbing_unsafe=True)
        n = 3 + seed % 4
        seed += 1
        truth = exact_count_dp(m, n).safe_paths
        if truth == 0:
            continue
        msul = MachineSafetyQuery(m)
        learned, _ = learn_safe_set(
            msul, LearnerConfig(horizon=n, sample_budget=200,
                                rng_seed=mseed))
        assert learned.count_exact(msul.input_alphabet) <= truth
        for s in itertools.product(msul.input_alphabet, repeat=n):
            if learned.covers(s):
                assert m.trace(s).safe
        checked += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"PASS criterion 8: expansion cardinality, oracle brute-force "
          f"agreement, census cross-check, learner soundness "
          f"({elapsed:.1f}s)")
