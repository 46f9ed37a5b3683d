"""Bundled case-study machines and generators for test corpora.

Each bundled machine is defined once, by its ``.machine`` file under
``data/``. The two lane-keeping variants differ only in the four
transitions leaving the alarm state: without assistance the alarm state
is absorbing, with assistance every input steers back to centre in one
step. The coffee machine is a best-effort reconstruction (see the
README caveat): its behaviour on length-2 sequences is pinned down, its
longer-horizon counts are reported rather than asserted.

``BUNDLED`` and ``build_alks`` always parse the packaged files.
``PACREACH_MODEL_DIR`` overrides where bundled names resolve only for
``bundled_path`` and ``resolve_model``, which the CLI and the wire
server use.
"""

from __future__ import annotations

import os
import random
from functools import partial
from importlib import resources
from pathlib import Path

from .errors import ValidationError
from .mealy import MealyMachine, load_model

__all__ = ["build_alks", "random_machine", "BUNDLED", "bundled_path",
           "resolve_model"]


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
    """
    if num_states < 1 or alphabet_size < 1:
        raise ValidationError("need at least one state and one input")
    if not 0.0 <= unsafe_fraction <= 1.0:
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

def _packaged_path(fname: str) -> Path:
    return Path(str(resources.files(__package__).joinpath("data", fname)))


def _load_packaged(name: str) -> MealyMachine:
    return load_model(_packaged_path(name + ".machine"))


def build_alks(with_assist: bool) -> MealyMachine:
    """The lane-keeping machine: centre C, drifted L/R, alarm A.

    Steering into the drift direction twice raises the alarm. With
    assistance on, any input recovers from A back to C; with it off, A
    absorbs.
    """
    return _load_packaged("alks_with" if with_assist else "alks_without")


BUNDLED = {name: partial(_load_packaged, name)
           for name in ("alks_without", "alks_with", "coffee", "all_safe",
                        "none_safe")}

MODEL_DIR_ENV = "PACREACH_MODEL_DIR"


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled model file.

    Honours the model-directory override from the environment before
    falling back to the files installed with the package.
    """
    fname = name if name.endswith(".machine") else name + ".machine"
    override = os.environ.get(MODEL_DIR_ENV)
    if override:
        candidate = Path(override) / fname
        if candidate.exists():
            return candidate
    return _packaged_path(fname)


def resolve_model(name_or_path: str) -> MealyMachine:
    """Load a model from a path, or from the bundle by (file)name."""
    p = Path(name_or_path)
    if p.exists():
        return load_model(p)
    if p.parent == Path("."):
        candidate = bundled_path(p.name)
        if candidate.exists():
            return load_model(candidate)
    raise ValidationError(
        f"no such model file or bundled model: {name_or_path}")
