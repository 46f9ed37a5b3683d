import itertools
from importlib import resources
from pathlib import Path

import pytest

from pacreach.baselines import exact_count_dp
from pacreach.errors import ValidationError
from pacreach.mealy import load_model, serialize_model
from pacreach.models import BUNDLED, build_alks, random_machine, resolve_model

PACKAGED = resources.files("pacreach").joinpath("data")
SHIPPED = sorted(entry.name for entry in PACKAGED.iterdir()
                 if entry.name.endswith(".machine"))


def packaged_path(fname):
    return Path(str(PACKAGED.joinpath(fname)))


@pytest.mark.parametrize("fname", SHIPPED)
def test_a_bundled_name_always_means_its_packaged_file(fname, tmp_path,
                                                       monkeypatch):
    stem = fname.removesuffix(".machine")
    assert set(BUNDLED) == {"alks_with", "alks_without", "all_safe",
                            "coffee", "none_safe"}
    assert stem in BUNDLED
    packaged = BUNDLED[stem]()
    assert packaged == load_model(packaged_path(fname))
    assert resolve_model(stem) == resolve_model(fname) == packaged
    # no environment variable can point a bundled name elsewhere
    decoy = random_machine(1, 2, 0.0, seed=0)
    (tmp_path / fname).write_text(serialize_model(decoy))
    monkeypatch.setenv("PACREACH_MODEL_DIR", str(tmp_path))
    assert resolve_model(stem) == packaged


def test_lane_keeping_variants_differ_only_at_the_alarm_state():
    off, on = build_alks(False), build_alks(True)
    for (state, sym), dst in off.transitions.items():
        if state == "A":
            assert dst == ("A", "alarm")
            assert on.transitions[(state, sym)] == ("C", "ok")
        else:
            assert on.transitions[(state, sym)] == dst


def test_lane_keeping_variants_agree_until_the_alarm():
    off, on = build_alks(False), build_alks(True)
    for seq in itertools.product(off.inputs, repeat=4):
        run = off.trace(seq)
        if "alarm" not in run.output_trace:
            assert on.trace(seq) == run


def test_assistance_only_helps():
    # recovery can never turn a safe outcome unsafe
    off, on = build_alks(False), build_alks(True)
    for n in range(1, 7):
        assert exact_count_dp(on, n).safe_paths >= \
            exact_count_dp(off, n).safe_paths


def test_coffee_pins_down_length_two_behaviour():
    machine = BUNDLED["coffee"]()
    for pair in itertools.product(machine.inputs, repeat=2):
        assert machine.is_safe(pair) == ("button" not in pair)


def test_coffee_reference_counts():
    machine = BUNDLED["coffee"]()
    assert exact_count_dp(machine, 2).safe_paths == 9
    assert exact_count_dp(machine, 5).safe_paths == 283


def test_coffee_happy_path_dispenses():
    machine = BUNDLED["coffee"]()
    run = machine.trace(("water", "pod", "button"))
    assert run.output_trace[-1] == "coffee"
    assert run.safe


def test_trivial_machines():
    assert random_machine(1, 2, 0.0, seed=0).inputs == ("i0", "i1")
    assert BUNDLED["all_safe"]().is_safe(("i0", "i2", "i1"))
    assert not BUNDLED["none_safe"]().is_safe(("i0",))


def test_random_machine_is_deterministic_in_the_seed():
    a = random_machine(6, 3, 0.5, seed=99)
    b = random_machine(6, 3, 0.5, seed=99)
    assert a == b
    c = random_machine(6, 3, 0.5, seed=100)
    assert a != c


def test_random_machine_zero_fraction_is_all_safe():
    machine = random_machine(5, 2, 0.0, seed=1)
    assert machine.safe_states == frozenset(machine.states)


def test_random_machine_initial_state_stays_safe():
    for seed in range(20):
        machine = random_machine(4, 2, 1.0, seed=seed)
        assert machine.initial in machine.safe_states
        assert machine.safe_states == frozenset({machine.initial})


def test_random_machine_absorbing_unsafe_states_self_loop():
    machine = random_machine(8, 3, 0.6, seed=7)
    unsafe = set(machine.states) - machine.safe_states
    assert unsafe  # seed chosen so the property is not vacuous
    for state in unsafe:
        for sym in machine.inputs:
            assert machine.transitions[(state, sym)][0] == state


def test_random_machine_outputs_flag_unsafe_targets():
    machine = random_machine(8, 3, 0.4, seed=13, absorbing_unsafe=False)
    for (_, _), (dst, out) in machine.transitions.items():
        assert (out == "bad") == (dst not in machine.safe_states)


def test_random_machine_validation():
    with pytest.raises(ValidationError):
        random_machine(0, 2, 0.5, seed=1)
    with pytest.raises(ValidationError):
        random_machine(3, 2, 1.5, seed=1)


def test_resolve_model_accepts_paths_and_bare_names(tmp_path):
    by_name = resolve_model("alks_without")
    by_file = resolve_model("alks_without.machine")
    by_path = resolve_model(str(packaged_path("alks_without.machine")))
    assert by_name == by_file == by_path == build_alks(False)


def test_resolve_model_rejects_unknown_names():
    with pytest.raises(ValidationError, match="no such model"):
        resolve_model("does_not_exist")
