import itertools

import pytest

from pacreach.errors import ParseError, ValidationError
from pacreach.mealy import MealyMachine, parse_model, serialize_model
from pacreach.models import build_alks


WTO = build_alks(with_assist=False)
WITH = build_alks(with_assist=True)


def test_trace_examples():
    run = WTO.trace(["s", "s", "s"])
    assert run.final_state == "C"
    assert run.safe
    assert run.output_trace == ("ok", "ok", "ok")

    run = WTO.trace(["l", "l"])
    assert run.final_state == "A"
    assert not run.safe
    assert run.output_trace == ("ok", "alarm")


def test_trace_single_step_equals_transition():
    for sym in WTO.inputs:
        dst, out = WTO.transitions[(WTO.initial, sym)]
        run = WTO.trace([sym])
        assert run.final_state == dst
        assert run.output_trace == (out,)


def test_trace_output_length_matches_input_length():
    for n in range(1, 6):
        assert len(WTO.trace(["s"] * n).output_trace) == n


def test_trace_unknown_symbol():
    with pytest.raises(ValidationError):
        WTO.trace(["l", "x"])


def test_trace_is_deterministic():
    seq = ("l", "r", "s", "l")
    assert WTO.trace(seq) == WTO.trace(seq)


# -- construction validation ---------------------------------------------------

def _alks_fields(**overrides):
    fields = dict(
        states=WTO.states, inputs=WTO.inputs, outputs=WTO.outputs,
        transitions=dict(WTO.transitions), initial=WTO.initial,
        safe_states=WTO.safe_states)
    fields.update(overrides)
    return fields


def test_missing_transition_rejected():
    t = dict(WTO.transitions)
    del t[("A", "s")]
    with pytest.raises(ValidationError, match="missing transition"):
        MealyMachine(**_alks_fields(transitions=t))


def test_a_transition_for_an_unknown_pair_is_rejected():
    t = dict(WTO.transitions)
    t[("Z", "l")] = ("C", "ok")
    with pytest.raises(ValidationError,
                       match=r"unknown pairs: \[\('Z', 'l'\)\]"):
        MealyMachine(**_alks_fields(transitions=t))


def test_a_step_from_an_unknown_state_is_rejected():
    with pytest.raises(ValidationError, match="unknown state 'Z'"):
        WTO.step("Z", "l")


def test_unknown_initial_rejected():
    with pytest.raises(ValidationError, match="initial state"):
        MealyMachine(**_alks_fields(initial="Z"))


def test_safe_states_must_be_declared():
    with pytest.raises(ValidationError, match="safe set"):
        MealyMachine(**_alks_fields(safe_states=frozenset({"C", "Z"})))


def test_undeclared_transition_target_rejected():
    t = dict(WTO.transitions)
    t[("A", "s")] = ("Z", "alarm")
    with pytest.raises(ValidationError):
        MealyMachine(**_alks_fields(transitions=t))


def test_undeclared_output_rejected():
    t = dict(WTO.transitions)
    t[("A", "s")] = ("A", "boom")
    with pytest.raises(ValidationError, match="output"):
        MealyMachine(**_alks_fields(transitions=t))


def test_duplicate_symbols_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        MealyMachine(**_alks_fields(inputs=("l", "l", "s")))


def test_empty_alphabet_rejected():
    with pytest.raises(ValidationError):
        MealyMachine(**_alks_fields(inputs=()))


# -- text format ---------------------------------------------------------------

MINIMAL = """\
# toy
inputs: a b
outputs: o
initial: q
safe: q
q a -> q / o
q b -> r / o
r a -> r / o
r b -> q / o
"""


def test_parse_minimal():
    m = parse_model(MINIMAL)
    assert m.states == ("q", "r")
    assert m.inputs == ("a", "b")
    assert m.initial == "q"
    assert m.safe_states == {"q"}
    assert m.transitions[("q", "b")] == ("r", "o")


def test_parse_shipped_file_matches_builder(tmp_path):
    from importlib import resources
    packaged = resources.files("pacreach") / "data" / "alks_without.machine"
    text = packaged.read_text(encoding="utf-8")
    m = parse_model(text)
    assert len(m.states) == 4
    assert m.inputs == ("l", "r", "s")
    assert m.safe_states == {"C", "L", "R"}
    assert dict(m.transitions) == dict(WTO.transitions)


def test_parse_missing_transition_is_totality_error():
    text = MINIMAL.replace("r b -> q / o\n", "")
    with pytest.raises(ValidationError, match="missing transition"):
        parse_model(text)


def test_parse_undeclared_initial():
    text = MINIMAL.replace("initial: q", "initial: zz")
    with pytest.raises(ValidationError):
        parse_model(text)


def test_parse_error_carries_line_number():
    text = MINIMAL.replace("q b -> r / o", "q b -> r o")
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == 7
    text = MINIMAL.replace("initial: q", "initial: q r")
    with pytest.raises(ParseError, match="expects one state, got 2") as err:
        parse_model(text)
    assert err.value.line == 4
    text = MINIMAL.replace("safe: q", "unsafe: r")
    with pytest.raises(ParseError, match="unknown header 'unsafe'") as err:
        parse_model(text)
    assert err.value.line == 5


def test_parse_rejects_undeclared_input_symbol():
    text = MINIMAL + "q c -> q / o\n"
    with pytest.raises(ParseError, match="undeclared input"):
        parse_model(text)


def test_parse_rejects_duplicate_transition():
    text = MINIMAL + "q a -> r / o\n"
    with pytest.raises(ParseError, match="duplicate transition"):
        parse_model(text)


@pytest.mark.parametrize("header", ["inputs", "outputs", "initial", "safe"])
def test_parse_rejects_duplicate_header(header):
    # a header may follow the transitions; here the repeat is the last line
    with pytest.raises(ParseError, match=f"duplicate '{header}:'") as err:
        parse_model(MINIMAL + f"{header}: q\n")
    assert err.value.line == len(MINIMAL.splitlines()) + 1


def test_parse_requires_headers():
    with pytest.raises(ParseError, match="missing 'initial:'"):
        parse_model("inputs: a\noutputs: o\nq a -> q / o\n")


def test_parse_requires_a_transition_line():
    with pytest.raises(ParseError, match="no transition lines"):
        parse_model("inputs: a\noutputs: o\ninitial: q\nsafe: q\n")


def test_unicode_symbols_survive():
    text = """\
inputs: ← →
outputs: ✓
initial: σ
safe: σ
σ ← -> σ / ✓
σ → -> σ / ✓
"""
    m = parse_model(text)
    assert m.inputs == ("←", "→")
    assert m.trace(["←", "→"]).safe


def test_serialize_parse_round_trip_behaviour():
    for machine in (WTO, WITH, parse_model(MINIMAL)):
        again = parse_model(serialize_model(machine))
        assert again.inputs == machine.inputs
        for n in (1, 2, 3):
            for seq in itertools.product(machine.inputs, repeat=n):
                assert machine.trace(seq) == again.trace(seq)
