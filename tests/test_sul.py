import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pacreach.analysis import analyze, reports_to_csv
from pacreach.errors import ValidationError
from pacreach.learner import ORACLE_ALL_SAFE, ORACLE_PAPER_LITERAL
from pacreach.models import BUNDLED, build_alks, random_machine
from pacreach.monomials import Monomial
from pacreach.sul import (DRAW_BLOCK_WORDS, MachineSafetyQuery, SafetyQuery,
                          _choice_blocks)


class LoopOnly(MachineSafetyQuery):
    """The machine adapter on the default loop: one ``answer_monomial``
    call per candidate of an example, one run per query."""

    generalize = SafetyQuery.generalize


class BlackBox(SafetyQuery):
    """A machine reached through ``is_safe`` only: the default ``draws``."""

    def __init__(self, machine):
        super().__init__(machine.inputs)
        self.machine = machine

    def _answer(self, seq):
        return self.machine.trace(seq).safe


def test_adapter_agrees_with_trace_exhaustively():
    for with_assist in (False, True):
        machine = build_alks(with_assist)
        sul = MachineSafetyQuery(machine)
        for n in range(1, 5):
            for seq in itertools.product(machine.inputs, repeat=n):
                assert sul.is_safe(seq) == machine.trace(seq).safe


def test_verdict_examples():
    without = MachineSafetyQuery(build_alks(False))
    with_assist = MachineSafetyQuery(build_alks(True))
    assert without.is_safe(["l", "l", "s"]) is False
    assert with_assist.is_safe(["l", "l", "s"]) is True


def test_query_counter_counts_answered_queries():
    sul = MachineSafetyQuery(build_alks(False))
    assert sul.query_count == 0
    sul.is_safe(["s"])
    sul.is_safe(["l", "l"])
    assert sul.query_count == 2
    with pytest.raises(ValidationError):
        sul.is_safe(["nope"])
    assert sul.query_count == 2  # failed queries are not answered


def test_queries_are_deterministic():
    sul = MachineSafetyQuery(build_alks(False))
    seq = ("l", "r", "s", "l", "l")
    assert sul.is_safe(seq) == sul.is_safe(seq)


def test_unknown_symbol_is_validation_error():
    sul = MachineSafetyQuery(build_alks(False))
    with pytest.raises(ValidationError, match="alphabet"):
        sul.is_safe(["l", "x", "s"])


@pytest.mark.parametrize("adapter", [MachineSafetyQuery, BlackBox])
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 13, 255, 256, 300,
                                  4097, 70000])
def test_draws_are_the_sequences_of_random_choice(adapter, size):
    # every state is safe, so a machine builds every sequence too; at
    # each n, enough draws to cross at least two block boundaries
    sul = adapter(random_machine(1, size, 0.0, seed=0))
    alphabet = sul.input_alphabet
    for seed, n in enumerate((1, 2, 3, 7, 16, 5000)):
        twin = random.Random(seed)
        taken = 2 * DRAW_BLOCK_WORDS // n + 3
        for safe, seq in itertools.islice(
                sul.draws(n, random.Random(seed)), taken):
            assert safe
            assert seq == tuple(twin.choice(alphabet) for _ in range(n))
        assert sul.query_count == taken
        sul.query_count = 0


@pytest.mark.parametrize("k", [2 ** 31 + 5, 2 ** 32 - 1])
def test_choice_blocks_pick_like_random_choice_past_any_real_alphabet(k):
    # no alphabet this wide fits in memory, so check the symbol numbers:
    # each try is a whole 32-bit word, and at 2**31 + 5 about half drop
    n, twin = 7, random.Random(k)
    blocks = _choice_blocks(n, k, random.Random(k))
    picked = 0
    while picked < 2 * DRAW_BLOCK_WORDS:
        block = next(blocks)
        assert len(block) % n == 0
        assert list(block) == [twin.choice(range(k)) for _ in block]
        picked += len(block)


@pytest.mark.parametrize("adapter", [MachineSafetyQuery, BlackBox])
def test_draws_check_the_horizon_before_reading_the_generator(adapter):
    sul, rng = adapter(build_alks(False)), random.Random(3)
    state = rng.getstate()
    for n in (0, -2):
        with pytest.raises(ValidationError,
                           match=f"^horizon must be >= 1, got {n}$"):
            sul.draws(n, rng)
    assert rng.getstate() == state
    assert sul.query_count == 0


@pytest.mark.parametrize("adapter", [MachineSafetyQuery, BlackBox])
def test_draws_refuse_a_horizon_that_is_not_an_int(adapter):
    sul, rng = adapter(build_alks(False)), random.Random(3)
    state = rng.getstate()
    for n in (True, 3.0):
        with pytest.raises(ValidationError,
                           match=f"^horizon must be an int, got {n!r}$"):
            sul.draws(n, rng)
    assert rng.getstate() == state
    assert sul.query_count == 0


def test_an_adapter_is_built_with_a_non_empty_alphabet():
    class NoInputs(SafetyQuery):
        def __init__(self, inputs):
            super().__init__(inputs)

        def _answer(self, seq):
            return True

    for empty in ((), [], iter(())):
        with pytest.raises(ValidationError,
                           match="^input alphabet is empty$"):
            NoInputs(empty)
    # a repeated symbol would count sequences over ("a", "a", "b") twice
    with pytest.raises(ValidationError,
                       match="^input alphabet repeats a symbol$"):
        NoInputs(("a", "a", "b"))
    sul = NoInputs(iter(["a", "b"]))
    assert sul.input_alphabet == ("a", "b")
    assert sul._symbol_set == frozenset({"a", "b"})
    assert sul.query_count == 0


@st.composite
def machines(draw):
    if draw(st.booleans()):
        return BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))]()
    return random_machine(
        num_states=draw(st.integers(1, 6)),
        alphabet_size=draw(st.integers(1, 4)),
        unsafe_fraction=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2 ** 32)),
        absorbing_unsafe=draw(st.booleans()))


@st.composite
def examples(draw, alphabet):
    n = draw(st.integers(1, 7))
    return Monomial(tuple(draw(st.lists(st.sampled_from(alphabet),
                                        min_size=n, max_size=n))))


@settings(max_examples=200)
@given(data=st.data())
def test_a_query_steps_the_index_to_the_trace_verdict(data):
    machine = data.draw(machines())
    sul = MachineSafetyQuery(machine)
    seqs = data.draw(st.lists(st.lists(st.sampled_from(machine.inputs),
                                       max_size=8), min_size=1, max_size=10))
    for seq in seqs:
        assert sul.is_safe(seq) == machine.trace(seq).safe
    assert sul.query_count == len(seqs)
    unknown = data.draw(st.text(min_size=1, max_size=3).filter(
        lambda sym: sym not in machine.inputs))
    seq = data.draw(st.permutations([*seqs[0], unknown]))
    with pytest.raises(ValidationError, match="symbols not in alphabet"):
        sul.is_safe(seq)
    assert sul.query_count == len(seqs)


@settings(max_examples=400)
@given(data=st.data())
def test_machine_generalize_matches_the_loop(data):
    # every candidate of the example, swept at once, against one
    # answer_monomial call per candidate
    machine = data.draw(machines())
    example = data.draw(examples(machine.inputs))
    n = example.horizon
    for want_all in (True, False):
        for max_free in (0, 1, n):
            fast, loop = MachineSafetyQuery(machine), LoopOnly(machine)
            fast.query_count = loop.query_count = 5  # a delta, not a total
            general = fast.generalize(example, want_all, max_free)
            assert general == loop.generalize(example, want_all, max_free)
            assert fast.query_count == loop.query_count
            assert general.symbols.count(None) <= max_free
            assert all(sym in (None, bound) for sym, bound
                       in zip(general.symbols, example.symbols))


@settings(max_examples=200)
@given(data=st.data())
def test_one_machine_adapter_answers_a_run_of_cubes_like_the_loop(data):
    # one adapter sweeps a run of examples with both verdicts wanted, so
    # later ones are answered from steps that earlier ones memoised; both
    # memos stay bounded
    machine = data.draw(machines())
    fast = MachineSafetyQuery(machine)
    for example in data.draw(st.lists(examples(machine.inputs),
                                      min_size=1, max_size=20)):
        for want_all in (True, False):
            loop, before = LoopOnly(machine), fast.query_count
            general = fast.generalize(example, want_all, example.horizon)
            assert general == loop.generalize(example, want_all,
                                              example.horizon)
            assert fast.query_count - before == loop.query_count
    images = (len(machine.inputs) + 1) * 2 ** len(machine.states)
    assert len(fast._image) <= images
    assert len(fast._forward) <= images


@pytest.mark.parametrize("adapter", [MachineSafetyQuery, BlackBox])
@pytest.mark.parametrize("example,message", [
    (Monomial(()), "^horizon must be >= 1, got 0$"),
    (Monomial(("x", "l")), r"^bound symbols not in alphabet: \['x'\]$"),
    (Monomial(("l", "zz", "b")),
     r"^bound symbols not in alphabet: \['b', 'zz'\]$"),
    (Monomial(("l", None, "s")), r"^example \{1=l, 3=s\} is not fully bound$"),
])
def test_a_bad_example_is_refused_before_any_query(adapter, example,
                                                   message):
    # the first candidate of ("x", "l") drops the unknown symbol, so the
    # loop alone would answer it; every adapter checks the example first
    sul = adapter(build_alks(False))
    for want_all in (True, False):
        with pytest.raises(ValidationError, match=message):
            sul.generalize(example, want_all, 2)
    assert sul.query_count == 0


@pytest.mark.parametrize("semantics", [ORACLE_ALL_SAFE, ORACLE_PAPER_LITERAL])
@pytest.mark.parametrize("model,horizon", [("alks_without", 6),
                                           ("alks_with", 5), ("coffee", 4)])
def test_analysis_through_the_loop_gives_the_same_row(model, horizon,
                                                      semantics):
    # analyze(machine) answers through MachineSafetyQuery as well, and
    # adds the census, which a plain SafetyQuery target leaves empty;
    # LoopOnly generalizes candidate by candidate, the machine in a sweep
    machine = BUNDLED[model]()
    rows = [reports_to_csv([analyze(
        target, horizon=horizon, model_name=model, sample_budget=200,
        seed=7, oracle_semantics=semantics)])
        for target in (MachineSafetyQuery(machine), LoopOnly(machine))]
    assert rows[0] == rows[1]


@settings(max_examples=200)
@given(data=st.data())
def test_a_fused_draw_has_the_trace_verdict_and_counts_one_query(data):
    machine = data.draw(machines())
    n = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 2 ** 32))
    sul, twin = MachineSafetyQuery(machine), random.Random(seed)
    draws = iter(sul.draws(n, random.Random(seed)))
    assert sul.query_count == 0
    for taken in range(1, data.draw(st.integers(0, 300)) + 1):
        safe, seq = next(draws)
        expected = tuple(twin.choice(machine.inputs) for _ in range(n))
        assert safe == machine.trace(expected).safe
        if safe:
            assert seq == expected
        assert sul.query_count == taken
