import itertools
import logging
import random

import pytest

from pacreach import learner
from pacreach.errors import (SamplingCapError, TransportError,
                             ValidationError)
from pacreach.learner import (ORACLE_ALL_SAFE, ORACLE_PAPER_LITERAL,
                              LearnerConfig, LearnerStats, draw_safe_example,
                              learn_safe_set, query_oracle)
from pacreach.models import BUNDLED, build_alks
from pacreach.monomials import Monomial
from pacreach.sul import MachineSafetyQuery, SafetyQuery


def covered_sequences(learned, alphabet, n):
    return {seq for seq in itertools.product(alphabet, repeat=n)
            if learned.covers(seq)}


def test_config_validation():
    with pytest.raises(ValidationError):
        LearnerConfig(horizon=0, sample_budget=10)
    with pytest.raises(ValidationError):
        LearnerConfig(horizon=3, sample_budget=0)
    with pytest.raises(ValidationError):
        LearnerConfig(horizon=3, sample_budget=10, oracle_semantics="maybe")


def test_draw_safe_example_returns_fully_bound_safe_sequence():
    sul = MachineSafetyQuery(build_alks(False))
    rng = random.Random(5)
    example = draw_safe_example(sul, 4, rng, max_attempts=1000)
    assert example.horizon == 4
    assert None not in example.symbols
    assert sul.is_safe(example.symbols)


def test_draw_safe_example_gives_up_when_nothing_is_safe():
    sul = MachineSafetyQuery(BUNDLED["none_safe"]())
    with pytest.raises(SamplingCapError) as info:
        draw_safe_example(sul, 3, random.Random(0), max_attempts=25)
    assert info.value.attempts == 25
    assert sul.query_count == 25


def test_query_oracle_accepts_an_all_safe_generalization():
    # leaving position 1 free over {2=straight-ish bindings} stays safe
    sul = MachineSafetyQuery(build_alks(False))
    assert query_oracle(sul, Monomial.from_map(3, {2: "s", 3: "s"})) is True


def test_query_oracle_rejects_a_partly_unsafe_generalization():
    # [s, l, l] drives the cruise controller into the alarm state
    sul = MachineSafetyQuery(build_alks(False))
    assert query_oracle(sul, Monomial.from_map(3, {2: "l", 3: "l"})) is False


def test_query_oracle_any_safe_variant_accepts_the_same_candidate():
    sul = MachineSafetyQuery(build_alks(False))
    verdict = query_oracle(sul, Monomial.from_map(3, {2: "l", 3: "l"}),
                           semantics=ORACLE_PAPER_LITERAL)
    assert verdict is True  # [r, l, l] stays safe, and one witness suffices


def test_query_oracle_matches_brute_force_on_every_small_candidate():
    machine = build_alks(False)
    sul = MachineSafetyQuery(machine)
    alphabet = sul.input_alphabet
    n = 3
    for free in range(n + 1):
        for positions in itertools.combinations(range(1, n + 1), free):
            bound = [p for p in range(1, n + 1) if p not in positions]
            for values in itertools.product(alphabet, repeat=len(bound)):
                candidate = Monomial.from_map(n, dict(zip(bound, values)))
                expected = all(machine.is_safe(s)
                               for s in candidate.expand(alphabet))
                assert query_oracle(sul, candidate) is expected


def test_query_oracle_counts_sequence_queries():
    sul = MachineSafetyQuery(build_alks(False))
    stats = LearnerStats()
    query_oracle(sul, Monomial.from_map(3, {3: "s"}), stats=stats)
    assert stats.oracle_calls == 1
    assert stats.oracle_sequence_queries == sul.query_count
    assert stats.oracle_sequence_queries <= 9


def test_query_oracle_expansion_cap_refuses_not_fabricates(caplog):
    sul = MachineSafetyQuery(BUNDLED["all_safe"]())
    candidate = Monomial.from_map(5, {1: "i0"})
    with caplog.at_level(logging.WARNING, logger="pacreach.learner"):
        verdict = query_oracle(sul, candidate, expansion_cap=10)
    assert verdict is False
    assert sul.query_count == 0
    assert "exceeds cap" in caplog.text


def test_learn_on_all_safe_machine_collapses_to_one_empty_monomial():
    sul = MachineSafetyQuery(BUNDLED["all_safe"]())
    learned, stats = learn_safe_set(
        sul, LearnerConfig(horizon=4, sample_budget=6, rng_seed=3))
    assert len(learned) == 1
    only = next(iter(learned))
    assert only.symbols == (None,) * 4
    assert learned.count_formula(3) == 3 ** 4
    assert stats.examples_drawn == 6
    assert stats.examples_skipped_implied == 5


def test_learn_recovers_the_exact_safe_set_on_the_cruise_model():
    # frozen run: this seed and budget recover all 17 safe sequences
    sul = MachineSafetyQuery(build_alks(False))
    learned, stats = learn_safe_set(
        sul, LearnerConfig(horizon=3, sample_budget=50, rng_seed=11))
    assert learned.count_exact(sul.input_alphabet) == 17
    assert stats.examples_drawn == 50
    assert stats.examples_skipped_implied + len(learned) == 50


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("horizon,truth", [(3, 17), (4, 41), (5, 99)])
def test_learn_is_reliable_across_seeds(seed, horizon, truth):
    sul = MachineSafetyQuery(build_alks(False))
    learned, _ = learn_safe_set(
        sul, LearnerConfig(horizon=horizon, sample_budget=1000,
                           rng_seed=seed))
    assert learned.count_exact(sul.input_alphabet) == truth


def test_learned_set_is_sound_exhaustively():
    machine = build_alks(True)
    sul = MachineSafetyQuery(machine)
    learned, _ = learn_safe_set(
        sul, LearnerConfig(horizon=3, sample_budget=200, rng_seed=9))
    for seq in covered_sequences(learned, sul.input_alphabet, 3):
        assert machine.is_safe(seq)


def test_learned_monomials_are_maximally_general():
    # every binding still present survived an oracle refusal, so
    # dropping it must expose at least one unsafe sequence
    machine = build_alks(False)
    sul = MachineSafetyQuery(machine)
    learned, _ = learn_safe_set(
        sul, LearnerConfig(horizon=3, sample_budget=200, rng_seed=2))
    for mono in learned:
        for pos, sym in enumerate(mono.symbols, 1):
            if sym is None:
                continue
            relaxed = mono.without(pos)
            assert any(not machine.is_safe(s)
                       for s in relaxed.expand(sul.input_alphabet))


def test_learning_is_deterministic_for_a_seed():
    def run():
        sul = MachineSafetyQuery(BUNDLED["coffee"]())
        learned, stats = learn_safe_set(
            sul, LearnerConfig(horizon=4, sample_budget=120, rng_seed=77))
        stats.wall_time = 0.0
        return learned, stats

    assert run() == run()


def test_seeds_change_the_sampling_path():
    def attempts(seed):
        sul = MachineSafetyQuery(build_alks(False))
        _, stats = learn_safe_set(
            sul, LearnerConfig(horizon=5, sample_budget=40, rng_seed=seed))
        return stats.sample_attempts

    assert len({attempts(s) for s in range(6)}) > 1


def test_adapter_accounting_identity():
    sul = MachineSafetyQuery(build_alks(True))
    _, stats = learn_safe_set(
        sul, LearnerConfig(horizon=4, sample_budget=300, rng_seed=4))
    assert sul.query_count == stats.sample_attempts + \
        stats.oracle_sequence_queries
    assert stats.sample_attempts >= stats.examples_drawn == 300


def test_any_safe_oracle_overgeneralizes():
    # frozen comparison run on the no-assistance cruise model: the sound
    # oracle recovers exactly the 17 safe sequences, the any-safe variant
    # claims 27 of which 10 are in fact unsafe
    machine = build_alks(False)

    def run(semantics):
        sul = MachineSafetyQuery(machine)
        learned, _ = learn_safe_set(
            sul, LearnerConfig(horizon=3, sample_budget=50, rng_seed=11,
                               oracle_semantics=semantics))
        covered = covered_sequences(learned, sul.input_alphabet, 3)
        unsafe = {s for s in covered if not machine.is_safe(s)}
        return len(covered), len(unsafe)

    assert run(ORACLE_ALL_SAFE) == (17, 0)
    assert run(ORACLE_PAPER_LITERAL) == (27, 10)


def test_expansion_cap_degrades_to_fully_bound_monomials(caplog,
                                                        monkeypatch):
    monkeypatch.setattr(learner, "DEFAULT_ORACLE_EXPANSION_CAP", 1)
    sul = MachineSafetyQuery(build_alks(False))
    with caplog.at_level(logging.WARNING, logger="pacreach.learner"):
        learned, stats = learn_safe_set(
            sul, LearnerConfig(horizon=3, sample_budget=30, rng_seed=1))
    assert all(None not in m.symbols for m in learned)
    assert stats.oracle_sequence_queries == 0
    assert "exceeds cap" in caplog.text
    # still sound: stored examples were drawn safe
    assert learned.count_exact(sul.input_alphabet) == len(learned)


class _DropsMidOracle(SafetyQuery):
    """Answers one query, then behaves like a dead connection."""

    def __init__(self):
        super().__init__()
        self._answered = False

    @property
    def input_alphabet(self):
        return ("a", "b")

    def _answer(self, seq):
        if self._answered:
            raise TransportError("connection lost")
        self._answered = True
        return True


def test_transport_errors_propagate_out_of_the_loop():
    with pytest.raises(TransportError):
        learn_safe_set(_DropsMidOracle(),
                       LearnerConfig(horizon=2, sample_budget=1))
