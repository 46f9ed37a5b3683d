"""Deterministic Mealy machines: construction, execution, text format.

A machine is an immutable value. Running an input sequence folds the
transition function from the initial state and classifies the run as
safe iff the final state lies in the machine's safe set. Nothing here
mutates anything, so machines are free to share between workers.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import ParseError, ValidationError

__all__ = [
    "MealyMachine",
    "RunResult",
    "parse_model",
    "serialize_model",
    "load_model",
]

@dataclass(frozen=True)
class RunResult:
    """Outcome of executing one input sequence."""

    final_state: str
    output_trace: tuple[str, ...]
    safe: bool


@dataclass(frozen=True)
class MealyMachine:
    """A deterministic, complete Mealy machine with a designated safe set.

    ``transitions`` maps (state, input) to a (next state, output) pair
    and must be total: every state must handle every input. The input
    alphabet's declared order is canonical; every expansion or brute
    force sweep in the package iterates inputs in this order, which is
    what makes seeded runs reproducible.
    """

    states: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    transitions: Mapping[tuple[str, str], tuple[str, str]]
    initial: str
    safe_states: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.inputs:
            raise ValidationError("input alphabet is empty")
        for name, seq in (("state", self.states), ("input", self.inputs),
                          ("output", self.outputs)):
            if len(set(seq)) != len(seq):
                raise ValidationError(f"duplicate {name} symbol in {seq!r}")
        state_set = set(self.states)
        if self.initial not in state_set:
            raise ValidationError(
                f"initial state {self.initial!r} is not a declared state")
        bad = set(self.safe_states) - state_set
        if bad:
            raise ValidationError(
                f"safe set references undeclared states: {sorted(bad)}")
        output_set = set(self.outputs)
        for state in self.states:
            for sym in self.inputs:
                key = (state, sym)
                if key not in self.transitions:
                    raise ValidationError(
                        f"missing transition for state {state!r} on input {sym!r}")
                dst, out = self.transitions[key]
                if dst not in state_set:
                    raise ValidationError(
                        f"transition {state!r} --{sym}--> {dst!r} targets an "
                        f"undeclared state")
                if out not in output_set:
                    raise ValidationError(
                        f"transition {state!r} --{sym}--> emits undeclared "
                        f"output {out!r}")
        if len(self.transitions) != len(self.states) * len(self.inputs):
            extra = set(self.transitions) - {
                (s, i) for s in self.states for i in self.inputs}
            raise ValidationError(
                f"transitions for unknown pairs: {sorted(extra)}")

    # -- execution ---------------------------------------------------------

    def step(self, state: str, sym: str) -> tuple[str, str]:
        """One transition: returns (next state, emitted output)."""
        try:
            return self.transitions[(state, sym)]
        except KeyError:
            if sym not in self.inputs:
                raise ValidationError(f"unknown input symbol {sym!r}") from None
            raise ValidationError(f"unknown state {state!r}") from None

    def trace(self, seq: Sequence[str]) -> RunResult:
        """Execute ``seq`` from the initial state.

        Returns the final state, the per-step output trace and the
        safety verdict (final state in the safe set).
        """
        state = self.initial
        outs = []
        for sym in seq:
            state, out = self.step(state, sym)
            outs.append(out)
        return RunResult(state, tuple(outs), state in self.safe_states)


# -- text format -------------------------------------------------------------
#
#   inputs: l r s
#   outputs: ok alarm
#   initial: C
#   safe: C L R
#   # one line per (state, input) pair
#   C l -> L / ok
#
# States are implicit: the set of source states of the transition lines.
# Exactly |S| * |I| transition lines are required.


def parse_model(text: str) -> MealyMachine:
    """Parse the plain-text model format into a validated machine."""
    headers: dict[str, list[str]] = {}
    # (line number, src, sym, dst, out), in file order
    transition_rows: list[tuple[int, str, str, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, colon, rest = line.partition(":")
        if colon and " " not in head:
            key = head.strip()
            if key not in ("inputs", "outputs", "initial", "safe"):
                raise ParseError(f"unknown header {key!r}", line=lineno)
            if key in headers:
                raise ParseError(f"duplicate '{key}:' header", line=lineno)
            headers[key] = rest.split()
            if key == "initial" and len(headers[key]) != 1:
                raise ParseError(
                    f"'initial:' expects one state, got {len(headers[key])}",
                    line=lineno)
            continue
        tokens = line.split()
        if len(tokens) != 6 or tokens[2] != "->" or tokens[4] != "/":
            raise ParseError(
                "expected 'STATE INPUT -> STATE / OUTPUT'", line=lineno,
                column=1)
        src, sym, _, dst, _, out = tokens
        transition_rows.append((lineno, src, sym, dst, out))

    for name in ("inputs", "outputs", "initial"):
        if name not in headers:
            raise ParseError(f"missing '{name}:' header")
    if not transition_rows:
        raise ParseError("no transition lines")

    input_set = set(headers["inputs"])
    # State order: first appearance as a transition source.
    states: list[str] = []
    transitions: dict[tuple[str, str], tuple[str, str]] = {}
    for lineno, src, sym, dst, out in transition_rows:
        if sym not in input_set:
            raise ParseError(f"undeclared input symbol {sym!r}", line=lineno)
        if src not in states:
            states.append(src)
        if (src, sym) in transitions:
            raise ParseError(
                f"duplicate transition for state {src!r} on input {sym!r}",
                line=lineno)
        transitions[(src, sym)] = (dst, out)

    return MealyMachine(
        states=tuple(states),
        inputs=tuple(headers["inputs"]),
        outputs=tuple(headers["outputs"]),
        transitions=transitions,
        initial=headers["initial"][0],
        safe_states=frozenset(headers.get("safe", ())),
    )


def serialize_model(machine: MealyMachine) -> str:
    """Inverse of parse_model, up to comments and whitespace.

    A machine whose names the text form cannot carry raises a
    ValidationError naming the first one: a symbol or state that is
    empty or holds whitespace or '#', or a state that holds ':'.
    """
    for kind, names, banned in (("input", machine.inputs, "#"),
                                ("output", machine.outputs, "#"),
                                ("state", machine.states, "#:")):
        for name in names:
            if name.split() != [name] or any(c in name for c in banned):
                raise ValidationError(
                    f"{kind} {name!r} has no text form: it is empty or "
                    f"holds whitespace or one of {banned!r}")
    buf = io.StringIO()
    buf.write("inputs: " + " ".join(machine.inputs) + "\n")
    buf.write("outputs: " + " ".join(machine.outputs) + "\n")
    buf.write("initial: " + machine.initial + "\n")
    safe_in_order = [s for s in machine.states if s in machine.safe_states]
    buf.write("safe: " + " ".join(safe_in_order) + "\n")
    for state in machine.states:
        for sym in machine.inputs:
            dst, out = machine.transitions[(state, sym)]
            buf.write(f"{state} {sym} -> {dst} / {out}\n")
    return buf.getvalue()


def load_model(path) -> MealyMachine:
    """Read and parse a model file from disk; a file that cannot be read,
    decoded or parsed raises a ValidationError naming the path."""
    try:
        # utf-8-sig drops a leading byte-order mark
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(
            f"cannot read model file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"model file {path} is not UTF-8", line=line) \
            from exc
    try:
        return parse_model(text)
    except ParseError as exc:
        raise ParseError(f"model file {path}: {exc.message}", line=exc.line,
                         column=exc.column) from exc
