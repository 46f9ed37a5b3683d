"""Every count argument is an int, never a bool, within its bounds, and
every real argument is a number. Anything else raises ValidationError
naming the argument, before any query, connect or bind."""

import random
import re
import shlex
import socket
import sys

import pytest

from pacreach.analysis import analyze, plan_analysis, reproduce_table
from pacreach.baselines import (exact_count_dp, exact_count_enumerate,
                                monte_carlo)
from pacreach.bounds import (rate_for_confidence, required_samples,
                             safety_probability, solve_confidence)
from pacreach.cli import main
from pacreach.errors import ValidationError
from pacreach.learner import LearnerConfig
from pacreach.models import build_alks, random_machine
from pacreach.monomials import MonomialSet
from pacreach.seeding import derive_seed
from pacreach.sul import MachineSafetyQuery
from pacreach.wire import BlackBoxConfig, RemoteSafetyQuery, serve_tcp

MACHINE = build_alks(False)
D_BOUND = "covered-count bound d_bound (--d-bound)"


def counts(low=None):
    """True, an int-valued float, a numeric string and, given a lower
    bound, the int just below it."""
    return [True, 2.0, "3"] + ([low - 1] if low is not None else [])


def reals(out_of_range):
    """True, a numeric string and a number outside the range."""
    return [True, "0.5", out_of_range]


# (argument as the error names it, call on an adapter and a value,
#  values to refuse); each call's adapter must answer no query
ADAPTER_CASES = [
    ("horizon", lambda sul, v: sul.draws(v, random.Random(1)), counts(1)),
    ("samples", lambda sul, v: monte_carlo(sul, 3, v, seed=1), counts(1)),
    ("horizon", lambda sul, v: monte_carlo(sul, v, 10, seed=1), counts(1)),
    ("seed", lambda sul, v: monte_carlo(sul, 3, 10, seed=v), counts()),
    ("horizon", lambda sul, v: analyze(sul, horizon=v, sample_budget=10),
     counts(1)),
    ("sample_budget", lambda sul, v: analyze(sul, horizon=3, sample_budget=v),
     counts(1)),
    ("seed", lambda sul, v: analyze(sul, horizon=3, sample_budget=10, seed=v),
     counts()),
    (D_BOUND, lambda sul, v: analyze(sul, horizon=3, target_confidence=0.9,
                                     d_bound=v), counts(0)),
    ("confidence", lambda sul, v: analyze(sul, horizon=3,
                                          target_confidence=v), reals(1.0)),
]

OTHER_CASES = [
    ("horizon", lambda v: LearnerConfig(horizon=v, sample_budget=10),
     counts(1)),
    ("sample_budget", lambda v: LearnerConfig(horizon=3, sample_budget=v),
     counts(1)),
    ("rng_seed", lambda v: LearnerConfig(horizon=3, sample_budget=10,
                                         rng_seed=v), counts()),
    ("horizon", lambda v: exact_count_dp(MACHINE, v), counts(1)),
    ("horizon", lambda v: exact_count_enumerate(MACHINE, v), counts(1)),
    (D_BOUND, lambda v: required_samples(10.0, v), counts(0)),
    ("inverse error rate", lambda v: required_samples(v, 1), reals(1.0)),
    ("confidence", rate_for_confidence, reals(0.0)),
    ("samples", lambda v: solve_confidence(v, 17), counts(1)),
    (D_BOUND, lambda v: solve_confidence(1000, v), counts(0)),
    ("safe count", lambda v: safety_probability(v, 3, 3), counts(0)),
    ("alphabet size", lambda v: safety_probability(1, v, 3), counts(1)),
    ("horizon", lambda v: safety_probability(1, 3, v), counts(1)),
    ("horizon", lambda v: plan_analysis(horizon=v, sample_budget=10),
     counts(1)),
    ("horizon", lambda v: MonomialSet(v, []), counts(1)),
    ("alphabet size", lambda v: MonomialSet(2, []).count_formula(v),
     counts(1)),
    ("num_states", lambda v: random_machine(v, 2, 0.3, 1), counts(1)),
    ("alphabet_size", lambda v: random_machine(2, v, 0.3, 1), counts(1)),
    ("unsafe_fraction", lambda v: random_machine(2, 2, v, 1), reals(1.5)),
    ("seed", lambda v: derive_seed(v, "learner:main"), counts()),
    ("seed", lambda v: reproduce_table(seed=v), counts()),
    ("max_retries", lambda v: BlackBoxConfig(
        command="x", unsafe_outputs={"b"}, max_retries=v), counts(0)),
    ("timeout", lambda v: BlackBoxConfig(
        command="x", unsafe_outputs={"b"}, timeout=v), reals(0)),
    ("command", lambda v: BlackBoxConfig(command=v, unsafe_outputs={"b"}),
     [123, b"x"]),
    ("address", lambda v: BlackBoxConfig(address=v, unsafe_outputs={"b"}),
     [123, b"h:1", "h:70000"]),
    ("port", lambda v: serve_tcp(MACHINE, "127.0.0.1", v, max_sessions=1),
     counts(0) + [65536, 70000]),
    ("max_sessions", lambda v: serve_tcp(MACHINE, "127.0.0.1", 0,
                                         max_sessions=v), counts(1)),
]


def _params(cases):
    return [pytest.param(name, call, value, id=f"{name}-{k}-{value!r}")
            for k, (name, call, values) in enumerate(cases)
            for value in values]


def _no_socket(*args, **kwargs):
    raise AssertionError("a socket was opened before the refusal")


def _forbid_sockets(monkeypatch):
    for name in ("socket", "getaddrinfo", "create_connection"):
        monkeypatch.setattr(socket, name, _no_socket)


@pytest.mark.parametrize("name, call, value", _params(OTHER_CASES))
def test_a_bad_argument_is_refused_naming_it(monkeypatch, name, call, value):
    _forbid_sockets(monkeypatch)
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} "):
        call(value)


@pytest.fixture(scope="module")
def stdio_remote():
    config = BlackBoxConfig(
        command=f"{sys.executable} -m pacreach.cli serve-model "
                f"--model alks_without --stdio",
        unsafe_outputs={"alarm"})
    with RemoteSafetyQuery(config) as remote:
        yield remote


@pytest.mark.parametrize("adapter", ["machine", "stdio"])
@pytest.mark.parametrize("name, call, value", _params(ADAPTER_CASES))
def test_a_bad_argument_costs_the_adapter_nothing(request, monkeypatch,
                                                  adapter, name, call, value):
    if adapter == "machine":
        sul = MachineSafetyQuery(MACHINE)
    else:
        sul = request.getfixturevalue("stdio_remote")
    _forbid_sockets(monkeypatch)
    before = sul.query_count, getattr(sul, "requests", None)
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} "):
        call(sul, value)
    assert (sul.query_count, getattr(sul, "requests", None)) == before


@pytest.mark.parametrize("argv, error", [
    (["analyze", "--model", "alks_without", "-n", "0", "-L", "10"],
     "horizon must be >= 1, got 0"),
    (["analyze", "--model", "alks_without", "-n", "3", "-L", "0"],
     "sample_budget must be >= 1, got 0"),
    (["analyze", "--model", "alks_without", "-n", "3", "--confidence", "0.9",
      "--d-bound", "-1"],
     "covered-count bound d_bound (--d-bound) must be >= 0, got -1"),
    (["analyze", "--cmd", "x", "--unsafe-outputs", "b", "-n", "3", "-L", "10",
      "--retries", "-1"], "max_retries must be >= 0, got -1"),
    (["analyze", "--endpoint", "127.0.0.1:70000", "--unsafe-outputs", "b",
      "-n", "3", "-L", "10"],
     "address must be HOST:PORT (port 0-65535), got '127.0.0.1:70000'"),
    (["exact", "--model", "alks_without", "-n", "0"],
     "horizon must be >= 1, got 0"),
    (["estimate", "--model", "alks_without", "-n", "3", "-L", "0"],
     "samples must be >= 1, got 0"),
    (["confidence", "-L", "0", "--d-bound", "3"],
     "samples must be >= 1, got 0"),
    (["sample-size", "--confidence", "0.9", "--d-bound", "-1"],
     "covered-count bound d_bound (--d-bound) must be >= 0, got -1"),
    (["reproduce-table", "-L", "0"], "sample_budget must be >= 1, got 0"),
    (["serve-model", "--model", "alks_without", "--listen", "127.0.0.1:0",
      "--max-sessions", "0"], "--max-sessions must be >= 1, got 0"),
])
def test_the_cli_refuses_a_count_below_its_bound(capsys, monkeypatch, argv,
                                                 error):
    _forbid_sockets(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "-n", "0", "-L", "10"],
    ["estimate", "-n", "0", "-L", "10"],
    ["analyze", "-n", "3", "-L", "0"],
    ["estimate", "-n", "3", "-L", "0"],
    ["analyze", "-n", "3", "--confidence", "1.5"],
    ["analyze", "-n", "3", "-L", "10", "--d-bound", "3"],
])
def test_the_cli_refuses_a_bad_argument_before_it_starts_a_black_box(
        tmp_path, capsys, argv):
    # the --cmd program records each start and exits
    starts = tmp_path / "starts"
    recorder = tmp_path / "record.py"
    recorder.write_text(f"open({str(starts)!r}, 'a').write('start\\n')\n")
    assert main(argv + ["--model", "alks_without"]) == 2
    want = capsys.readouterr().err
    assert want.startswith("error: ") and want.count("\n") == 1
    command = shlex.join([sys.executable, str(recorder)])
    assert main(argv + ["--cmd", command, "--unsafe-outputs", "alarm"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == want
    assert not starts.exists()
