"""Bundled case-study machines and generators for test corpora.

Each bundled machine is defined once, by its ``.machine`` file under
``data/``, and those files are the list of bundled names. The two
lane-keeping variants differ only in the four transitions leaving the
alarm state: without assistance the alarm state is absorbing, with
assistance every input steers back to centre in one step. The coffee
machine is a best-effort reconstruction (see the README caveat): its
behaviour on length-2 sequences is pinned down, its longer-horizon
counts are reported rather than asserted.
"""

from __future__ import annotations

import random
from functools import partial
from pathlib import Path

from .errors import ValidationError, check_int, check_real
from .mealy import MealyMachine, load_model

__all__ = ["build_alks", "random_machine", "BUNDLED", "resolve_model"]


def random_machine(num_states: int, alphabet_size: int,
                   unsafe_fraction: float, seed: int,
                   absorbing_unsafe: bool = True) -> MealyMachine:
    """A uniformly random total machine, deterministic in the seed.

    Each non-initial state is marked unsafe with probability
    ``unsafe_fraction`` (the initial state stays safe so short horizons
    are not trivially dead). With ``absorbing_unsafe`` the unsafe states
    self-loop on every input, the regime the learner's soundness
    argument likes best; without it they get random exits, modelling
    recovery. Outputs signal the safety of the state being entered, so
    output-classified black-box verdicts agree with state-label ones.
    ``num_states`` and ``alphabet_size`` are ints >= 1, and
    ``unsafe_fraction`` is a number in [0, 1].
    """
    check_int("num_states", num_states, 1)
    check_int("alphabet_size", alphabet_size, 1)
    if not 0.0 <= check_real("unsafe_fraction", unsafe_fraction) <= 1.0:
        raise ValidationError("unsafe_fraction must lie in [0, 1]")
    rng = random.Random(seed)
    states = tuple(f"q{k}" for k in range(num_states))
    inputs = tuple(f"i{k}" for k in range(alphabet_size))
    unsafe = {s for s in states[1:] if rng.random() < unsafe_fraction}
    transitions = {}
    for s in states:
        for i in inputs:
            if s in unsafe and absorbing_unsafe:
                dst = s
            else:
                dst = rng.choice(states)
            transitions[(s, i)] = (dst, "bad" if dst in unsafe else "ok")
    return MealyMachine(
        states=states,
        inputs=inputs,
        outputs=("ok", "bad"),
        transitions=transitions,
        initial=states[0],
        safe_states=frozenset(states) - unsafe,
    )


# -- bundled files -------------------------------------------------------------

_DATA = Path(__file__).parent / "data"

# One loader per packaged data/*.machine file, keyed by the file's stem.
BUNDLED = {path.stem: partial(load_model, path)
           for path in sorted(_DATA.glob("*.machine"))}


def build_alks(with_assist: bool) -> MealyMachine:
    """The lane-keeping machine: centre C, drifted L/R, alarm A.

    Steering into the drift direction twice raises the alarm. With
    assistance on, any input recovers from A back to C; with it off, A
    absorbs.
    """
    return BUNDLED["alks_with" if with_assist else "alks_without"]()


def resolve_model(name_or_path: str) -> MealyMachine:
    """Load a model from an existing path, else the bundled model of that
    name (with or without ``.machine``)."""
    p = Path(name_or_path)
    if p.exists():
        return load_model(p)
    loader = BUNDLED.get(name_or_path.removesuffix(".machine"))
    if loader is None:
        raise ValidationError(
            f"no such model file or bundled model: {name_or_path}")
    return loader()
