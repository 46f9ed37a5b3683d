import csv
import io
import itertools
import json
import os
import shlex
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pacreach import analysis, learner
from pacreach.baselines import monte_carlo
from pacreach.bounds import required_samples
from pacreach.cli import main
from pacreach.models import build_alks, load_model
from pacreach.seeding import derive_seed
from pacreach.sul import MachineSafetyQuery
from pacreach.wire import BlackBoxConfig, RemoteSafetyQuery

SERVE_WTO = (f"{sys.executable} -m pacreach.cli serve-model "
             f"--model alks_without --stdio")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    pairs = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        pairs[key] = value
    return pairs


def test_analyze_human_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "alks_without",
                           "-n", "3", "-L", "1000", "--seed", "7")
    assert code == 0
    report = parse_kv(out)
    assert report["model_name"] == "alks_without"
    assert report["covered_exact"] == "17"
    assert report["confidence"].startswith("0.9595")
    assert report["learned_probability"] == "0.62963"
    assert report["exact_safe_paths"] == "17"
    assert report["stats.examples_drawn"] == "1000"


def test_readme_quick_start_matches_the_cli(capsys):
    # the README's first "$ pacreach ..." block: its command, run here,
    # must print every "key: value" line the block shows
    readme = Path(__file__).parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("$ pacreach ", 1)[1]
    command, _, rest = block.partition("\n")
    shown = [line for line in rest.split("```", 1)[0].splitlines()
             if ": " in line]
    assert shown
    code, out, _ = run_cli(capsys, *shlex.split(command))
    assert code == 0
    printed = out.splitlines()
    assert [line for line in shown if line not in printed] == []


def test_analyze_csv_to_file(tmp_path, capsys):
    out_file = tmp_path / "row.csv"
    code, out, _ = run_cli(capsys, "analyze", "--model", "alks_without",
                           "-n", "3", "-L", "200", "--seed", "5",
                           "--format", "csv", "--out", str(out_file))
    assert code == 0
    assert out == ""
    expected = analysis.analyze(
        build_alks(False), horizon=3, model_name="alks_without",
        sample_budget=200, seed=5)
    assert out_file.read_text(encoding="utf-8") == \
        analysis.reports_to_csv([expected])


def test_analyze_json_lines(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "alks_without",
                           "-n", "3", "-L", "300", "--seed", "7",
                           "--format", "json-lines")
    assert code == 0
    record = json.loads(out.splitlines()[0])
    assert record["covered_exact"] == 17
    assert record["model_name"] == "alks_without"


def test_analyze_over_the_wire_matches_the_white_box_run(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--cmd", SERVE_WTO,
                           "--unsafe-outputs", "alarm",
                           "-n", "3", "-L", "100", "--seed", "21")
    assert code == 0
    remote = parse_kv(out)
    local = analysis.analyze(build_alks(False), horizon=3,
                             sample_budget=100, seed=21)
    assert int(remote["covered_used"]) == local.covered_used
    assert remote["confidence"] == f"{local.confidence:.6g}"
    assert remote["exact_safe_paths"] == "None"


def test_analyze_verbose_still_works(capsys):
    code, _, _ = run_cli(capsys, "-v", "analyze", "--model", "all_safe",
                         "-n", "2", "-L", "5", "--seed", "1")
    assert code == 0


def test_analyze_rejects_ambiguous_targets(capsys):
    code, _, err = run_cli(capsys, "analyze", "--model", "alks_without",
                           "--cmd", "whatever", "-n", "3", "-L", "10")
    assert code == 2
    assert "exactly one of --model" in err


def test_analyze_requires_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, "analyze", "--model", "alks_without",
                           "-n", "3")
    assert code == 2
    assert "exactly one" in err


def test_analyze_rejects_a_d_bound_in_budget_mode(capsys):
    code, out, err = run_cli(capsys, "analyze", "--model", "alks_without",
                             "-n", "3", "-L", "50", "--d-bound", "5")
    assert code == 2
    assert out == ""
    assert "d_bound" in err


def test_analyze_rejects_unsafe_outputs_with_a_model(capsys):
    code, out, err = run_cli(capsys, "analyze", "--model", "alks_without",
                             "--unsafe-outputs", "x", "-n", "3", "-L", "10")
    assert code == 2
    assert out == ""
    assert "--unsafe-outputs" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--model", "alks_without", "-n", "3", "-L", "10"],
    ["reproduce-table", "-L", "50"],
], ids=lambda argv: argv[0])
def test_an_out_file_that_cannot_be_written_exits_2(tmp_path, capsys, argv):
    out_file = tmp_path / "missing" / "x.csv"
    code, _, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 2
    assert str(out_file) in err
    assert "Traceback" not in err


def test_an_out_path_that_is_a_directory_exits_2(tmp_path, capsys):
    # the directory exists, so the check before the run passes and the
    # write after it fails
    code, out, err = run_cli(capsys, "analyze", "--model", "alks_without",
                             "-n", "3", "-L", "10", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, stage", [
    (["analyze", "--model", "alks_without", "-n", "3", "-L", "10"],
     "analyze"),
    (["reproduce-table", "-L", "50"], "reproduce_table"),
], ids=["analyze", "reproduce-table"])
def test_a_missing_out_directory_fails_before_the_run(tmp_path, capsys,
                                                      monkeypatch, argv,
                                                      stage):
    def run(*args, **kwargs):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(analysis, stage, run)
    out_file = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert str(out_file) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("subcommand", ["analyze", "estimate"])
@pytest.mark.parametrize("flag", ["--timeout", "--retries"])
def test_black_box_flags_are_rejected_with_a_model(capsys, subcommand, flag):
    code, out, err = run_cli(capsys, subcommand, "--model", "alks_without",
                             flag, "9", "-n", "3", "-L", "10")
    assert code == 2
    assert out == ""
    assert f"{flag} applies only to --endpoint / --cmd" in err


@pytest.mark.parametrize("subcommand", ["analyze", "estimate"])
@pytest.mark.parametrize("command, code", [
    pytest.param(" ", 2, id="no-program"),
    pytest.param("a 'b", 2, id="unbalanced-quote"),
    pytest.param("{missing}", 3, id="missing"),
    pytest.param("{not_executable}", 3, id="not-executable"),
])
def test_a_cmd_that_cannot_be_parsed_or_started_exits_cleanly(
        tmp_path, capsys, subcommand, command, code):
    not_executable = tmp_path / "not-executable"
    not_executable.write_text("ALPHABET\n", encoding="utf-8")
    not_executable.chmod(0o644)
    command = command.format(missing=tmp_path / "missing",
                             not_executable=not_executable)
    got, _, err = run_cli(capsys, subcommand, "--cmd", command,
                          "--unsafe-outputs", "alarm", "-n", "3",
                          "-L", "10", "--retries", "0")
    assert got == code
    assert err.startswith("error:" if code == 2 else "transport error:")
    assert "Traceback" not in err


def test_a_cmd_that_cannot_be_started_is_tried_once(tmp_path, capsys,
                                                   monkeypatch):
    starts = []
    popen = subprocess.Popen

    def counting_popen(*args, **kwargs):
        starts.append(args)
        return popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", counting_popen)
    code, _, err = run_cli(capsys, "analyze", "--cmd",
                           str(tmp_path / "missing"),
                           "--unsafe-outputs", "alarm", "--retries", "2",
                           "-n", "3", "-L", "10")
    assert code == 3
    assert err.startswith("transport error: cannot start")
    assert len(starts) == 1


def test_exit_code_for_unknown_model(capsys):
    code, _, err = run_cli(capsys, "analyze", "--model", "nope.machine",
                           "-n", "3", "-L", "10")
    assert code == 2
    assert err.startswith("error:")


def test_exit_code_for_unreachable_endpoint(capsys):
    code, _, err = run_cli(capsys, "analyze", "--endpoint", "127.0.0.1:9",
                           "--unsafe-outputs", "alarm", "-n", "3",
                           "-L", "10", "--retries", "0")
    assert code == 3
    assert "transport error" in err


def test_exit_code_for_a_peer_sending_invalid_utf8(capsys):
    script = ("import sys\n"
              "for line in sys.stdin:\n"
              "    sys.stdout.buffer.write(b'OK \\xff\\xfe\\n')\n"
              "    sys.stdout.flush()\n")
    code, _, err = run_cli(capsys, "analyze", "--cmd",
                           f"{sys.executable} -c {shlex.quote(script)}",
                           "--unsafe-outputs", "alarm", "-n", "3",
                           "-L", "10", "--retries", "0")
    assert code == 3
    assert "not UTF-8" in err


@pytest.mark.parametrize("timeout", ["nan", "inf", "-inf", "0", "-1", "3e6"])
def test_a_timeout_a_selector_cannot_wait_exits_cleanly(capsys, timeout):
    code, out, err = run_cli(capsys, "analyze", "--cmd", SERVE_WTO,
                             "--unsafe-outputs", "alarm", "-n", "3",
                             "-L", "5", f"--timeout={timeout}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: timeout must be in (0, 2147483.647] ")
    assert "Traceback" not in err


# Runs the CLI with the oracle's expansion cap at 1, so every candidate
# with a free position is refused. It runs in a child so that Python's
# last-resort handler, not pytest's log capture, decides what reaches
# stderr without -v.
CAPPED = """\
import sys
from pacreach import learner
from pacreach.cli import main
learner.DEFAULT_ORACLE_EXPANSION_CAP = 1
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("verbose", [[], ["-v"]])
def test_a_capped_oracle_is_logged_only_with_verbose(verbose):
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED, *verbose, "analyze", "--model",
         "alks_without", "-n", "3", "-L", "30", "--seed", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    if verbose:
        assert "pacreach.learner: not generalizing" in proc.stderr
        assert "exceeds cap 1" in proc.stderr
    else:
        assert proc.stderr == ""


# A --cmd child: appends its pid to a file and serves a model. Given a
# request count, the first child exits after that many requests and
# every later one exits at once.
CHILD = """\
import itertools, os, sys
from pacreach.models import resolve_model
from pacreach.wire import serve_stdio
pid_file, model, lines = sys.argv[1:]
first = not os.path.exists(pid_file)
with open(pid_file, "a") as fh:
    fh.write(f"{os.getpid()}\\n")
requests = sys.stdin.buffer
if lines:
    requests = itertools.islice(requests, int(lines) if first else 0)
serve_stdio(resolve_model(model), stdin=requests)
"""


def child_command(pid_file, model="alks_without", lines=""):
    return shlex.join([sys.executable, "-c", CHILD, str(pid_file), model,
                       str(lines)])


def assert_children_gone(pid_file):
    # a child that was waited for is gone; one still running, or exited
    # but never reaped, still answers signal 0
    pids = [int(line) for line in pid_file.read_text().split()]
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.parametrize("command", ["analyze", "estimate"])
def test_the_cmd_child_has_exited_when_main_returns(command, tmp_path,
                                                    capsys):
    pid_file = tmp_path / "child.pid"
    code, _, _ = run_cli(capsys, command, "--cmd", child_command(pid_file),
                         "--unsafe-outputs", "alarm", "-n", "3", "-L", "20")
    assert code == 0
    assert_children_gone(pid_file)


def test_no_cmd_child_outlives_a_transport_error(tmp_path, capsys):
    # the first child dies mid-run, both reconnects find a child that
    # exits at once, and the client gives up
    pid_file = tmp_path / "child.pid"
    code, _, err = run_cli(capsys, "analyze",
                           "--cmd", child_command(pid_file, lines=40),
                           "--unsafe-outputs", "alarm", "--retries", "2",
                           "-n", "3", "-L", "20")
    assert code == 3
    assert "giving up after 3 attempts" in err
    assert len(pid_file.read_text().split()) == 3
    assert_children_gone(pid_file)


# A --cmd child that appends its pid to a file and answers every request
# with an ALPHABET reply that repeats a symbol.
BAD_ALPHABET_CHILD = """\
import os, sys
with open(sys.argv[1], "a") as fh:
    fh.write(f"{os.getpid()}\\n")
for line in sys.stdin:
    print("OK a a", flush=True)
"""


def test_a_peer_that_breaks_the_protocol_is_started_once(tmp_path, capsys):
    # a fresh child would break it again, so the client does not retry
    pid_file = tmp_path / "child.pid"
    command = shlex.join([sys.executable, "-c", BAD_ALPHABET_CHILD,
                          str(pid_file)])
    code, _, err = run_cli(capsys, "analyze", "--cmd", command,
                           "--unsafe-outputs", "alarm", "--retries", "2",
                           "-n", "3", "-L", "10")
    assert code == 3
    assert "bad ALPHABET reply: OK a a" in err
    assert len(pid_file.read_text().split()) == 1
    assert_children_gone(pid_file)


def test_no_cmd_child_outlives_a_sampling_cap(tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.setattr(learner, "DEFAULT_SAMPLE_ATTEMPT_CAP", 25)
    pid_file = tmp_path / "child.pid"
    code, _, err = run_cli(capsys, "analyze",
                           "--cmd", child_command(pid_file, "none_safe"),
                           "--unsafe-outputs", "ok", "-n", "3", "-L", "20")
    assert code == 4
    assert "resource cap" in err
    assert_children_gone(pid_file)


def test_no_cmd_child_outlives_a_keyboard_interrupt(tmp_path, capsys,
                                                    monkeypatch):
    def interrupted(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(analysis, "learn_safe_set", interrupted)
    pid_file = tmp_path / "child.pid"
    code, _, _ = run_cli(capsys, "analyze", "--cmd", child_command(pid_file),
                         "--unsafe-outputs", "alarm", "-n", "3", "-L", "20")
    assert code == 130
    assert_children_gone(pid_file)


def test_exit_code_when_sampling_never_finds_a_safe_run(capsys):
    code, _, err = run_cli(capsys, "analyze", "--model", "none_safe",
                           "-n", "3", "-L", "10")
    assert code == 4
    assert "resource cap" in err


@pytest.mark.parametrize("argv", [["analyze", "-n", "3", "-L", "10"],
                                  ["exact", "-n", "3"], ["serve-model"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_an_unreadable_model_file_exits_2(tmp_path, capsys, argv, kind):
    path = tmp_path
    if kind == "not-utf8":
        path = tmp_path / "latin1.machine"
        path.write_bytes(b"inputs: a\noutputs: \xe9\n")
    code, _, err = run_cli(capsys, *argv, "--model", str(path))
    assert code == 2
    assert str(path) in err


def test_a_model_parse_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "syn.machine"
    path.write_text("inputs: a\noutputs: o\ninitial: q\nq a q / o\n")
    code, _, err = run_cli(capsys, "exact", "--model", str(path), "-n", "3")
    assert code == 2
    assert err == (f"error: line 4, column 1: model file {path}: "
                   f"expected 'STATE INPUT -> STATE / OUTPUT'\n")


def test_exact_with_an_empty_model_path_exits_2(capsys):
    code, _, err = run_cli(capsys, "exact", "--model", "", "-n", "3")
    assert code == 2
    assert "cannot read model file" in err


def test_exact_census(capsys):
    code, out, _ = run_cli(capsys, "exact", "--model", "alks_without",
                           "-n", "10")
    assert code == 0
    report = parse_kv(out)
    assert report["safe_paths"] == "8119"
    assert report["total_paths"] == "59049"
    assert float(report["probability"]) == pytest.approx(8119 / 59049)


def test_exact_census_always_semantics(capsys):
    code, out, _ = run_cli(capsys, "exact", "--model", "alks_with",
                           "-n", "3", "--semantics", "always")
    assert code == 0
    assert parse_kv(out)["safe_paths"] == "17"


def test_estimate_matches_the_library_call(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--model", "alks_without",
                           "-n", "3", "-L", "400", "--seed", "3")
    assert code == 0
    report = parse_kv(out)
    mc = monte_carlo(MachineSafetyQuery(build_alks(False)), 3, 400,
                     derive_seed(3, "estimate"))
    assert report["samples"] == "400"
    assert int(report["safe_hits"]) == mc.safe_hits
    assert float(report["estimate"]) == mc.estimate


def test_estimate_over_the_wire_prints_what_the_model_prints(capsys):
    # the baseline's draws cross the wire a window at a time
    args = ("-n", "8", "-L", "2000", "--seed", "7")
    code, remote, _ = run_cli(capsys, "estimate", "--cmd", SERVE_WTO,
                              "--unsafe-outputs", "alarm", *args)
    assert code == 0
    assert (0, remote, "") == run_cli(capsys, "estimate", "--model",
                                      "alks_without", *args)


def test_unsafe_outputs_are_split_on_commas_and_stripped(capsys):
    # " alarm" once matched no reply token, so every run read safe
    args = ("-n", "3", "-L", "2000", "--seed", "7")
    code, remote, _ = run_cli(capsys, "estimate", "--cmd", SERVE_WTO,
                              "--unsafe-outputs", "nothing, alarm ,", *args)
    assert code == 0
    assert (0, remote, "") == run_cli(capsys, "estimate", "--model",
                                      "alks_without", *args)


def test_estimate_with_a_zero_horizon_exits_2(capsys):
    code, out, err = run_cli(capsys, "estimate", "--model", "alks_with",
                             "-n", "0", "-L", "10")
    assert code == 2
    assert out == ""
    assert err == "error: horizon must be >= 1, got 0\n"


def test_sample_size_from_rate(capsys):
    code, out, _ = run_cli(capsys, "sample-size", "--inverse-error", "1.83",
                           "--d-bound", "272")
    assert code == 0
    assert out.strip() == "998"


def test_sample_size_from_confidence(capsys):
    code, out, _ = run_cli(capsys, "sample-size", "--confidence", "0.95",
                           "--d-bound", "17")
    assert code == 0
    assert out.strip() == str(required_samples(1.0 / (1.0 - 0.95), 17))


def test_sample_size_argument_validation(capsys):
    code, _, err = run_cli(capsys, "sample-size", "--inverse-error", "2")
    assert code == 2
    assert "--d-bound" in err
    code, _, err = run_cli(capsys, "sample-size", "--inverse-error", "2",
                           "--confidence", "0.5", "--d-bound", "3")
    assert code == 2
    assert "exactly one" in err


@pytest.mark.parametrize("rate", ["inf", "-inf", "nan"])
def test_sample_size_with_a_non_finite_rate_exits_2(capsys, rate):
    code, out, err = run_cli(capsys, "sample-size", f"--inverse-error={rate}",
                             "--d-bound", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: inverse error rate must be finite")
    assert err.count("\n") == 1


def test_confidence_subcommand(capsys):
    code, out, _ = run_cli(capsys, "confidence", "-L", "1000",
                           "--d-bound", "17")
    assert code == 0
    assert float(parse_kv(out)["confidence"]) == pytest.approx(0.9596,
                                                               abs=1e-3)
    code, _, err = run_cli(capsys, "confidence", "-L", "1000")
    assert code == 2
    assert "--d-bound" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--model", "alks_without", "-n", "3", "--confidence", "0.9"],
    ["sample-size", "--confidence", "0.9"], ["confidence", "-L", "5"]],
    ids=lambda argv: argv[0])
def test_a_negative_d_bound_is_named_in_the_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--d-bound", "-1")
    assert (code, out) == (2, "")
    assert err == ("error: covered-count bound d_bound (--d-bound) "
                   "must be >= 0, got -1\n")


def test_reproduce_table_to_file(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "reproduce-table", "--seed", "7",
                           "--out", str(out_file))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_file.read_text("utf-8"))))
    assert rows[0] == analysis.CSV_COLUMNS
    assert len(rows) == 9
    assert "all 28 checked cells within tolerance" in out
    assert "coffee" in out


def test_reproduce_table_json_lines_to_stdout(capsys):
    code, out, err = run_cli(capsys, "reproduce-table", "--seed", "7",
                             "--format", "json-lines")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 8
    assert {r["model_name"] for r in records} == \
        {"alks_without", "alks_with"}
    assert "all 28 checked cells within tolerance" in err


def test_serve_model_over_tcp_end_to_end():
    proc = subprocess.Popen(
        [sys.executable, "-m", "pacreach.cli", "serve-model",
         "--model", "alks_without", "--listen", "127.0.0.1:0",
         "--max-sessions", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        banner = proc.stdout.readline().split()
        assert banner[0] == "LISTENING"
        host, port = banner[1], int(banner[2])
        with socket.create_connection((host, port), timeout=5) as sock, \
                sock.makefile("rw", encoding="utf-8", newline="\n") as stream:

            def ask(line):
                stream.write(line + "\n")
                stream.flush()
                return stream.readline().strip()

            assert ask("ALPHABET") == "OK l r s"
            assert ask("RESET") == "OK"
            assert ask("STEP l") == "OUT ok"
            assert ask("STEP l") == "OUT alarm"
            assert ask("STEP nonsense").startswith("ERR")
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()


def _can_bind_ipv6_loopback():
    try:
        with socket.socket(socket.AF_INET6) as sock:
            sock.bind(("::1", 0))
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _can_bind_ipv6_loopback(),
                    reason="::1 cannot be bound here")
def test_serve_model_listens_on_an_ipv6_literal():
    # the server takes the family of its host, so the client, which
    # connects to "::1:PORT", gets the model file's verdicts
    path = Path(analysis.__file__).parent / "data" / "alks_with.machine"
    local = MachineSafetyQuery(load_model(path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pacreach.cli", "serve-model",
         "--model", str(path), "--listen", "::1:0", "--max-sessions", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        banner, host, port = proc.stdout.readline().split()
        assert (banner, host) == ("LISTENING", "::1")
        seqs = [seq for n in range(1, 5)
                for seq in itertools.product(local.input_alphabet, repeat=n)]
        with RemoteSafetyQuery(BlackBoxConfig(
                address=f"::1:{port}",
                unsafe_outputs=frozenset({"alarm"}))) as remote:
            assert [remote.is_safe(seq) for seq in seqs] == \
                [local.is_safe(seq) for seq in seqs]
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()


def test_serve_model_rejects_a_malformed_listen_address(capsys):
    code, _, err = run_cli(capsys, "serve-model", "--model", "alks_without",
                           "--listen", "nonsense")
    assert code == 2
    assert "HOST:PORT" in err


def test_serve_model_rejects_stdio_with_listen():
    # in a child with a deadline: a server that took both would listen
    proc = subprocess.run(
        [sys.executable, "-m", "pacreach.cli", "serve-model",
         "--model", "alks_without", "--stdio", "--listen", "127.0.0.1:0"],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not allowed with" in proc.stderr


def test_serve_model_rejects_max_sessions_without_listen(capsys):
    code, out, err = run_cli(capsys, "serve-model", "--model",
                             "alks_without", "--max-sessions", "1")
    assert code == 2
    assert out == ""
    assert "--max-sessions" in err


@pytest.mark.parametrize("sessions", ["0", "-1"])
def test_serve_model_rejects_fewer_than_one_session(capsys, sessions):
    code, out, err = run_cli(capsys, "serve-model", "--model",
                             "alks_without", "--listen", "127.0.0.1:0",
                             "--max-sessions", sessions)
    assert code == 2
    assert out == ""  # it never listened
    assert f"--max-sessions must be >= 1, got {sessions}" in err


def test_serve_model_on_a_port_in_use_exits_3(capsys):
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        code, out, err = run_cli(capsys, "serve-model", "--model",
                                 "alks_without", "--listen",
                                 f"127.0.0.1:{port}")
    assert code == 3
    assert out == ""
    assert err.startswith(
        f"transport error: cannot listen on 127.0.0.1:{port}: ")
    assert "Traceback" not in err


def test_help_via_module_invocation():
    out = subprocess.run(
        [sys.executable, "-m", "pacreach.cli", "--help"],
        capture_output=True, text=True, timeout=30)
    assert out.returncode == 0
    assert "usage: pacreach" in out.stdout
    for name in ("analyze", "exact", "estimate", "sample-size",
                 "confidence", "reproduce-table", "serve-model"):
        assert name in out.stdout


def test_serve_model_stdio_answers_a_request_that_is_not_utf8():
    proc = subprocess.run(
        [sys.executable, "-m", "pacreach.cli", "serve-model",
         "--model", "alks_without", "--stdio"],
        input=b"ALPHABET\n\xff\xfe\nRESET\n", capture_output=True,
        timeout=30, env={**os.environ, "PYTHONIOENCODING": "utf-8"})
    assert proc.returncode == 0, proc.stderr
    replies = proc.stdout.splitlines()
    assert len(replies) == 3
    assert replies[0] == b"OK l r s"
    assert replies[1].startswith(b"ERR")
    assert replies[2] == b"OK"


def test_serve_model_stdio_replies_in_utf8_under_an_ascii_locale():
    proc = subprocess.run(
        [sys.executable, "-m", "pacreach.cli", "serve-model",
         "--model", "alks_without", "--stdio"],
        input="é\nRESET\n".encode("utf-8"), capture_output=True,
        timeout=30, env={**os.environ, "PYTHONIOENCODING": "ascii"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode("utf-8").splitlines() == \
        ["ERR unknown command é", "OK"]


def test_serve_model_stdio_ends_quietly_when_its_reader_goes_away():
    proc = subprocess.Popen(
        [sys.executable, "-m", "pacreach.cli", "serve-model",
         "--model", "alks_with", "--stdio"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, bufsize=0)
    try:
        proc.stdin.write(b"RESET\n")
        assert proc.stdout.readline() == b"OK\n"
        proc.stdout.close()  # the reader goes away
        try:
            for _ in range(100):
                proc.stdin.write(b"RESET\n" * 1000)
        except BrokenPipeError:
            pass  # the server has already stopped reading
        proc.stdin.close()
        assert proc.wait(timeout=30) == 0
        assert proc.stderr.read() == b""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stderr.close()


def test_serve_model_stdio_ends_quietly_when_its_reader_resets_it():
    # a --cmd child's stdin and stdout are one socket; a client that
    # leaves with replies unread resets it, so the next read fails
    client, child_end = socket.socketpair()
    with child_end:
        proc = subprocess.Popen(
            [sys.executable, "-m", "pacreach.cli", "serve-model",
             "--model", "alks_without", "--stdio"],
            stdin=child_end, stdout=child_end, stderr=subprocess.PIPE)
    try:
        with client:
            client.settimeout(30)
            client.sendall(b"RESET\n" * 50)
            replies = len(b"OK\n") * 50
            deadline = time.monotonic() + 30
            while len(client.recv(replies, socket.MSG_PEEK)) < replies:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert b"Traceback" not in err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
