import contextlib
import itertools
import logging
import random
import sys

import pytest

from pacreach import learner
from pacreach.baselines import monte_carlo
from pacreach.errors import (SamplingCapError, TransportError,
                             ValidationError)
from pacreach.learner import (ORACLE_ALL_SAFE, ORACLE_PAPER_LITERAL,
                              LearnerConfig, LearnerStats, draw_safe_example,
                              learn_safe_set, query_oracle)
from pacreach.models import BUNDLED, build_alks
from pacreach.monomials import Monomial, MonomialSet
from pacreach.sul import MachineSafetyQuery, SafetyQuery
from pacreach.wire import BlackBoxConfig, RemoteSafetyQuery


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
    example = draw_safe_example(sul.draws(4, random.Random(5)))
    assert example.horizon == 4
    assert None not in example.symbols
    assert sul.is_safe(example.symbols)


def test_draw_safe_example_gives_up_when_nothing_is_safe(monkeypatch):
    monkeypatch.setattr(learner, "DEFAULT_SAMPLE_ATTEMPT_CAP", 25)
    sul = MachineSafetyQuery(BUNDLED["none_safe"]())
    with pytest.raises(SamplingCapError) as info:
        draw_safe_example(sul.draws(3, random.Random(0)))
    assert info.value.attempts == 25
    assert sul.query_count == 25


def test_query_oracle_accepts_an_all_safe_generalization():
    # leaving position 1 free over {2=straight-ish bindings} stays safe
    sul = MachineSafetyQuery(build_alks(False))
    assert query_oracle(sul, Monomial((None, "s", "s"))) is True


def test_query_oracle_rejects_a_partly_unsafe_generalization():
    # [s, l, l] drives the cruise controller into the alarm state
    sul = MachineSafetyQuery(build_alks(False))
    assert query_oracle(sul, Monomial((None, "l", "l"))) is False


def test_query_oracle_any_safe_variant_accepts_the_same_candidate():
    sul = MachineSafetyQuery(build_alks(False))
    verdict = query_oracle(sul, Monomial((None, "l", "l")),
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
                bindings = dict(zip(bound, values))
                candidate = Monomial(
                    tuple(bindings.get(p) for p in range(1, n + 1)))
                expected = all(machine.trace(s).safe
                               for s in candidate.expand(alphabet))
                assert query_oracle(sul, candidate) is expected


def test_query_oracle_expansion_cap_refuses_not_fabricates(caplog,
                                                           monkeypatch):
    monkeypatch.setattr(learner, "DEFAULT_ORACLE_EXPANSION_CAP", 10)
    sul = MachineSafetyQuery(BUNDLED["all_safe"]())
    candidate = Monomial(("i0",) + (None,) * 4)
    with caplog.at_level(logging.INFO, logger="pacreach.learner"):
        verdict = query_oracle(sul, candidate)
    assert verdict is False
    assert sul.query_count == 0
    assert "exceeds cap" in caplog.text


def test_query_oracle_rejects_unknown_semantics_over_the_cap(caplog):
    # 3 ** 13 covered sequences: over the default expansion cap, so the
    # semantics must be checked before the cap turns the call into False
    sul = MachineSafetyQuery(BUNDLED["all_safe"]())
    candidate = Monomial(("i0",) + (None,) * 13)
    assert candidate.expansion_size(3) > learner.DEFAULT_ORACLE_EXPANSION_CAP
    with pytest.raises(ValidationError, match="bogus"):
        query_oracle(sul, candidate, semantics="bogus")
    assert "exceeds cap" not in caplog.text


@pytest.mark.parametrize("semantics", [ORACLE_ALL_SAFE, ORACLE_PAPER_LITERAL])
@pytest.mark.parametrize("bindings,unknown", [
    ({1: "x"}, ["x"]),
    ({1: "l", 3: "zz"}, ["zz"]),
    ({1: "x", 2: "s", 3: "b"}, ["b", "x"]),
])
def test_query_oracle_rejects_a_bound_symbol_outside_the_alphabet(
        semantics, bindings, unknown):
    # the adapter checks, so a direct answer_monomial call fails alike
    candidate = Monomial(tuple(bindings.get(p) for p in (1, 2, 3)))
    for sul in (MachineSafetyQuery(build_alks(False)),
                _BlackBox(build_alks(False))):
        sul.query_count = 5
        for ask in (lambda: query_oracle(sul, candidate, semantics),
                    lambda: sul.answer_monomial(
                        candidate, semantics == ORACLE_ALL_SAFE)):
            with pytest.raises(ValidationError) as info:
                ask()
            assert str(info.value) == (
                f"bound symbols not in alphabet: {unknown}")
            assert sul.query_count == 5


@pytest.mark.parametrize("semantics", [ORACLE_ALL_SAFE, ORACLE_PAPER_LITERAL])
@pytest.mark.parametrize("model", ["alks_without", "alks_with", "coffee"])
def test_query_oracle_counts_the_queries_up_to_the_first_deciding_one(
        model, semantics):
    # on every adapter the oracle runs the covered sequences in expand
    # order and stops at the first that decides: the count a machine's
    # sweep must report as its oracle_sequence_queries
    machine = BUNDLED[model]()
    want_all = semantics == ORACLE_ALL_SAFE
    alphabet = machine.inputs
    for n in range(1, 5):
        for symbols in itertools.product((*alphabet, None), repeat=n):
            candidate = Monomial(symbols)
            verdicts = [machine.trace(seq).safe
                        for seq in candidate.expand(alphabet)]
            deciding = [j for j, safe in enumerate(verdicts)
                        if safe != want_all]
            expected = (want_all, len(verdicts)) if not deciding else (
                not want_all, deciding[0] + 1)
            for sul in (MachineSafetyQuery(machine), _BlackBox(machine)):
                sul.query_count = 5  # a delta, not a total
                verdict = query_oracle(sul, candidate, semantics)
                assert (verdict, sul.query_count - 5) == expected


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
        assert machine.trace(seq).safe


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
            assert any(not machine.trace(s).safe
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


def test_adapter_accounting_identity(monkeypatch):
    calls = []
    sul = MachineSafetyQuery(build_alks(True))

    def counted_generalize(*args):
        calls.append(args)
        return MachineSafetyQuery.generalize(sul, *args)

    monkeypatch.setattr(sul, "generalize", counted_generalize)
    _, stats = learn_safe_set(
        sul, LearnerConfig(horizon=4, sample_budget=300, rng_seed=4))
    assert sul.query_count == stats.sample_attempts + \
        stats.oracle_sequence_queries
    assert stats.sample_attempts >= stats.examples_drawn == 300
    assert stats.oracle_calls == 4 * len(calls) == 4 * (
        stats.examples_drawn - stats.examples_skipped_implied)


def _per_candidate_learner(sul, cfg):
    """The learner as it was before ``SafetyQuery.generalize``: one
    ``query_oracle`` call per candidate, which checks and logs the cap."""
    draws = sul.draws(cfg.horizon, random.Random(cfg.rng_seed))
    items, learned = iter(draws), MonomialSet(cfg.horizon, ())
    stats = LearnerStats()
    for left in range(cfg.sample_budget, 0, -1):
        draws.will_take = min(left, learner.DEFAULT_SAMPLE_ATTEMPT_CAP)
        before = sul.query_count
        example = draw_safe_example(items)
        stats.sample_attempts += sul.query_count - before
        stats.examples_drawn += 1
        if learned.implies(example):
            stats.examples_skipped_implied += 1
            continue
        before = sul.query_count
        for pos in range(1, cfg.horizon + 1):
            candidate = example.without(pos)
            if query_oracle(sul, candidate, cfg.oracle_semantics):
                example = candidate
        stats.oracle_calls += cfg.horizon
        stats.oracle_sequence_queries += sul.query_count - before
        learned.add(example)
        learner.log.info("appended %s", example)
    return learned, stats


@pytest.mark.parametrize("cap", [1, 3, 9])
@pytest.mark.parametrize("semantics", [ORACLE_ALL_SAFE, ORACLE_PAPER_LITERAL])
def test_the_cap_gives_the_per_candidate_learners_set_stats_and_log(
        caplog, monkeypatch, cap, semantics):
    # 3 inputs: caps 1, 3 and 9 let a candidate free 0, 1 and 2 steps
    monkeypatch.setattr(learner, "DEFAULT_ORACLE_EXPANSION_CAP", cap)
    machine = build_alks(True)
    cfg = LearnerConfig(horizon=4, sample_budget=60, rng_seed=3,
                        oracle_semantics=semantics)
    runs = []
    for run, sul in ((_per_candidate_learner, MachineSafetyQuery(machine)),
                     (learn_safe_set, MachineSafetyQuery(machine)),
                     (learn_safe_set, _BlackBox(machine))):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="pacreach.learner"):
            learned, stats = run(sul, cfg)
        stats.wall_time = 0.0
        runs.append((learned, stats, sul.query_count, caplog.messages))
    assert runs[1] == runs[0] == runs[2]
    assert any("exceeds cap" in line for line in runs[0][3])


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
        unsafe = {s for s in covered if not machine.trace(s).safe}
        return len(covered), len(unsafe)

    assert run(ORACLE_ALL_SAFE) == (17, 0)
    assert run(ORACLE_PAPER_LITERAL) == (27, 10)


def test_expansion_cap_degrades_to_fully_bound_monomials(caplog,
                                                        monkeypatch):
    monkeypatch.setattr(learner, "DEFAULT_ORACLE_EXPANSION_CAP", 1)
    sul = MachineSafetyQuery(build_alks(False))
    with caplog.at_level(logging.INFO, logger="pacreach.learner"):
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
        super().__init__(("a", "b"))
        self._answered = False

    def _answer(self, seq):
        if self._answered:
            raise TransportError("connection lost")
        self._answered = True
        return True


def test_transport_errors_propagate_out_of_the_loop():
    with pytest.raises(TransportError):
        learn_safe_set(_DropsMidOracle(),
                       LearnerConfig(horizon=2, sample_budget=1))


class _BlackBox(SafetyQuery):
    """A machine reached through ``is_safe`` only, counting its answers."""

    def __init__(self, machine):
        super().__init__(machine.inputs)
        self.machine = machine
        self.answers = 0

    def _answer(self, seq):
        self.answers += 1
        return self.machine.trace(seq).safe


@pytest.mark.parametrize("model,horizon", [("alks_without", 4),
                                           ("alks_with", 5), ("coffee", 3)])
def test_a_black_box_answers_only_the_draws_taken(model, horizon):
    # a query run ahead of its draw would show up in `answers`; the
    # machine's fused draws must learn the same set from the same draws
    machine = BUNDLED[model]()
    sul = _BlackBox(machine)
    cfg = LearnerConfig(horizon=horizon, sample_budget=150, rng_seed=9)
    learned, stats = learn_safe_set(sul, cfg)
    assert sul.answers == sul.query_count == \
        stats.sample_attempts + stats.oracle_sequence_queries
    fused = MachineSafetyQuery(machine)
    fused_learned, fused_stats = learn_safe_set(fused, cfg)
    assert fused_learned == learned
    fused_stats.wall_time = stats.wall_time
    assert fused_stats == stats
    assert fused.query_count == sul.query_count
    before = sul.query_count
    mc = monte_carlo(sul, horizon, 333, seed=9)
    assert sul.answers - before == sul.query_count - before == 333
    assert mc == monte_carlo(MachineSafetyQuery(machine), horizon, 333,
                             seed=9)


def test_a_capped_search_answers_exactly_the_attempts_it_reports(
        monkeypatch):
    # the budget is above the cap, so a black box that took the budget
    # for the number of draws to come would answer draws never taken
    monkeypatch.setattr(learner, "DEFAULT_SAMPLE_ATTEMPT_CAP", 25)
    remote = RemoteSafetyQuery(BlackBoxConfig(
        command=f"{sys.executable} -m pacreach.cli serve-model "
                f"--model none_safe --stdio",
        unsafe_outputs=frozenset({"ok"})))
    with remote:
        for sul in (_BlackBox(BUNDLED["none_safe"]()),
                    MachineSafetyQuery(BUNDLED["none_safe"]()), remote):
            with pytest.raises(SamplingCapError) as info:
                learn_safe_set(sul, LearnerConfig(
                    horizon=3, sample_budget=100, rng_seed=1))
            assert info.value.attempts == sul.query_count == 25
        # the ALPHABET handshake, then a RESET and three STEPs per draw
        assert remote.requests == 1 + 4 * 25
        # a fresh stream asks about one draw at a time until told more
        list(itertools.islice(remote.draws(3, random.Random(2)), 3))
        assert remote.requests == 1 + 4 * 25 + 4 * 3


@pytest.mark.parametrize("semantics", [ORACLE_ALL_SAFE, ORACLE_PAPER_LITERAL])
@pytest.mark.parametrize("adapter,model,horizon", [
    ("machine", "alks_without", 3), ("machine", "alks_with", 4),
    ("machine", "coffee", 5), ("black box", "alks_with", 3),
    ("black box", "coffee", 4), ("black box", "alks_without", 5),
    ("remote", "alks_with", 4)])
def test_a_continued_run_is_a_fresh_run_at_each_budget(
        adapter, model, horizon, semantics):
    # each budget's set, stats and queries are a fresh run's; only the
    # examples past the last budget are drawn, and nothing runs ahead
    make = {"machine": lambda _stack, m: MachineSafetyQuery(m),
            "black box": lambda _stack, m: _BlackBox(m),
            "remote": lambda stack, m: stack.enter_context(
                RemoteSafetyQuery(BlackBoxConfig(
                    command=f"{sys.executable} -m pacreach.cli "
                            f"serve-model --model {model} --stdio",
                    unsafe_outputs=frozenset({"alarm"}))))}[adapter]
    machine = BUNDLED[model]()

    def cfg(budget):
        return LearnerConfig(horizon=horizon, sample_budget=budget,
                             rng_seed=5, oracle_semantics=semantics)
    with contextlib.ExitStack() as stack:
        sul, run, wall_time = make(stack, machine), {}, 0.0
        for budget in (10, 40, 160, 160):
            learned, stats = learn_safe_set(sul, cfg(budget), run)
            fresh = make(stack, machine)
            want, want_stats = learn_safe_set(fresh, cfg(budget))
            assert list(learned) == list(want)
            assert stats.wall_time >= wall_time
            wall_time = want_stats.wall_time = stats.wall_time
            assert stats == want_stats
            assert sul.query_count == fresh.query_count
            assert getattr(sul, "answers", sul.query_count) == \
                sul.query_count
            if adapter == "remote":
                assert sul.requests == fresh.requests == \
                    1 + (horizon + 1) * sul.query_count
        sent = sul.query_count, getattr(sul, "requests", None)
        with pytest.raises(ValidationError, match="below"):
            learn_safe_set(sul, cfg(159), run)
        assert (sul.query_count, getattr(sul, "requests", None)) == sent
        assert stats == want_stats


@pytest.mark.parametrize("adapter", ["machine", "black box", "remote"])
def test_a_run_continues_only_on_its_adapter_and_config(adapter):
    # only the budget may change: an all-safe run continued under the
    # paper-literal oracle would cover unsafe sequences, one continued
    # on a second adapter would draw from the first, and one continued
    # at another horizon or seed would report a mix of two runs
    make = {"machine": lambda _stack, m: MachineSafetyQuery(m),
            "black box": lambda _stack, m: _BlackBox(m),
            "remote": lambda stack, m: stack.enter_context(
                RemoteSafetyQuery(BlackBoxConfig(
                    command=f"{sys.executable} -m pacreach.cli "
                            f"serve-model --model alks_without --stdio",
                    unsafe_outputs=frozenset({"alarm"}))))}[adapter]
    machine = BUNDLED["alks_without"]()
    cfg = LearnerConfig(horizon=3, sample_budget=10, rng_seed=1)
    twenty = LearnerConfig(horizon=3, sample_budget=20, rng_seed=1)
    with contextlib.ExitStack() as stack:
        sul, other, run = make(stack, machine), make(stack, machine), {}
        learn_safe_set(sul, cfg, run)
        misuses = [
            (other, twenty),
            (sul, LearnerConfig(horizon=5, sample_budget=20, rng_seed=1)),
            (sul, LearnerConfig(horizon=3, sample_budget=20, rng_seed=2)),
            (sul, LearnerConfig(horizon=3, sample_budget=20, rng_seed=1,
                                oracle_semantics=ORACLE_PAPER_LITERAL))]

        def spent():
            return [(s.query_count, getattr(s, "requests", None))
                    for s in (sul, other)]
        before = spent()
        for target, changed in misuses:
            with pytest.raises(ValidationError,
                               match="only on its own adapter and config"):
                learn_safe_set(target, changed, run)
            assert spent() == before
        learned, stats = learn_safe_set(sul, twenty, run)
        fresh = make(stack, machine)
        want, want_stats = learn_safe_set(fresh, twenty)
        assert list(learned) == list(want)
        want_stats.wall_time = stats.wall_time
        assert stats == want_stats
        assert sul.query_count == fresh.query_count
        assert learned.count_exact(machine.inputs) == 17  # sound, all found


@pytest.mark.parametrize("field, value", [
    ("horizon", True), ("horizon", 3.0), ("sample_budget", True),
    ("sample_budget", 10.5)])
def test_a_config_count_must_be_an_int(field, value):
    counts = {"horizon": 3, "sample_budget": 10, field: value}
    with pytest.raises(ValidationError,
                       match=f"^{field} must be an int, got {value!r}$"):
        LearnerConfig(**counts)
