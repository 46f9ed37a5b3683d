import pytest

from pacreach.baselines import (exact_count_dp, exact_count_enumerate,
                                monte_carlo)
from pacreach.errors import ResourceCapError, ValidationError
from pacreach.models import BUNDLED, build_alks, random_machine
from pacreach.sul import MachineSafetyQuery


def test_dp_reference_counts():
    wto = build_alks(False)
    assert [exact_count_dp(wto, n).safe_paths for n in (3, 4, 5)] == \
        [17, 41, 99]
    wit = build_alks(True)
    assert [exact_count_dp(wit, n).safe_paths for n in (3, 4, 5)] == \
        [23, 71, 207]


def test_dp_long_horizon():
    census = exact_count_dp(build_alks(False), 10)
    assert census.safe_paths == 8119
    assert census.total_paths == 59049
    assert census.probability == pytest.approx(8119 / 59049)


def test_dp_trivial_machines():
    assert exact_count_dp(BUNDLED["all_safe"](), 4).probability == 1.0
    assert exact_count_dp(BUNDLED["none_safe"](), 4).safe_paths == 0


def test_dp_agrees_with_enumeration_on_shipped_models():
    for machine in (build_alks(False), build_alks(True), BUNDLED["coffee"]()):
        for n in range(1, 6):
            dp = exact_count_dp(machine, n)
            brute = exact_count_enumerate(machine, n)
            assert dp.safe_paths == brute.safe_paths
            assert dp.total_paths == brute.total_paths


def test_dp_agrees_with_enumeration_on_random_machines():
    # fifty random machines, both absorbing and recovering unsafe states
    for k in range(50):
        machine = random_machine(
            num_states=2 + k % 5, alphabet_size=2 + k % 3,
            unsafe_fraction=0.4, seed=1000 + k,
            absorbing_unsafe=(k % 2 == 0))
        n = 2 + k % 4
        if len(machine.inputs) ** n > 10_000:
            n = 3
        assert exact_count_dp(machine, n).safe_paths == \
            exact_count_enumerate(machine, n).safe_paths


def test_dp_mass_conservation():
    # with every state declared safe, the safe count must equal |I|^n
    machine = build_alks(True)
    relaxed = type(machine)(machine.states, machine.inputs, machine.outputs,
                            machine.transitions, machine.initial,
                            frozenset(machine.states))
    for n in (1, 2, 5, 12):
        census = exact_count_dp(relaxed, n)
        assert census.safe_paths == census.total_paths
        assert census.total_paths == len(machine.inputs) ** n


def test_always_semantics_on_absorbing_machine_coincides():
    wto = build_alks(False)  # unsafe state absorbs
    for n in (1, 2, 3, 4, 5, 8):
        assert exact_count_dp(wto, n, semantics="always").safe_paths == \
            exact_count_dp(wto, n, semantics="final").safe_paths


def test_always_semantics_counts_recoveries_as_unsafe():
    wit = build_alks(True)
    # [l, l, s] visits the alarm state then recovers: safe by final
    # state, unsafe by whole-path standards
    final = exact_count_dp(wit, 3, semantics="final").safe_paths
    always = exact_count_dp(wit, 3, semantics="always").safe_paths
    assert final == 23
    assert always == 17  # same as the no-assistance machine
    assert always < final


def test_dp_validation():
    with pytest.raises(ValidationError):
        exact_count_dp(build_alks(False), 0)
    with pytest.raises(ValidationError):
        exact_count_dp(build_alks(False), 3, semantics="sometimes")


def test_enumeration_refuses_horizon_zero():
    with pytest.raises(ValidationError, match="horizon must be >= 1, got 0"):
        exact_count_enumerate(build_alks(False), 0)


def test_enumeration_cap():
    with pytest.raises(ResourceCapError):
        exact_count_enumerate(build_alks(False), 20)


def test_monte_carlo_fields_and_determinism():
    sul = MachineSafetyQuery(build_alks(False))
    a = monte_carlo(sul, 3, 500, seed=42)
    b = monte_carlo(MachineSafetyQuery(build_alks(False)), 3, 500, seed=42)
    assert a == b
    assert a.samples == 500
    assert 0 <= a.safe_hits <= 500
    assert a.estimate == a.safe_hits / 500
    assert a.std_error >= 0


def test_monte_carlo_trivial_machines():
    assert monte_carlo(MachineSafetyQuery(BUNDLED["all_safe"]()), 3, 200,
                       seed=1).estimate == 1.0
    assert monte_carlo(MachineSafetyQuery(BUNDLED["none_safe"]()), 3, 200,
                       seed=1).estimate == 0.0


def test_monte_carlo_lands_near_truth():
    sul = MachineSafetyQuery(build_alks(False))
    truth = 17 / 27
    mc = monte_carlo(sul, 3, 1000, seed=7)
    assert abs(mc.estimate - truth) <= 3 * mc.std_error
    assert sul.query_count == 1000


def test_monte_carlo_validation():
    with pytest.raises(ValidationError):
        monte_carlo(MachineSafetyQuery(build_alks(False)), 3, 0, seed=1)


def test_monte_carlo_rejects_a_horizon_below_one():
    sul = MachineSafetyQuery(build_alks(False))
    for n in (0, -1):
        with pytest.raises(ValidationError,
                           match=f"^horizon must be >= 1, got {n}$"):
            monte_carlo(sul, n, 100, seed=1)
    assert sul.query_count == 0


@pytest.mark.parametrize("samples", [True, 10.5])
def test_monte_carlo_rejects_a_sample_count_that_is_not_an_int(samples):
    sul = MachineSafetyQuery(build_alks(False))
    with pytest.raises(ValidationError,
                       match=f"^samples must be an int, got {samples!r}$"):
        monte_carlo(sul, 3, samples, seed=1)
    with pytest.raises(ValidationError, match="^horizon must be an int"):
        monte_carlo(sul, 3.0, 10, seed=1)
    assert sul.query_count == 0
