"""Command-line front end.

Subcommands map one-to-one onto the library engines:

    analyze          full pipeline: learn, count, probability, confidence
    exact            exact safe-path census of a model file (DP)
    estimate         Monte Carlo safety estimate
    sample-size      budget needed for a given rate/confidence and count bound
    confidence       confidence achieved by a given budget and count
    reproduce-table  re-run the eight published lane-keeping rows and diff
    serve-model      answer the wire protocol for a model file

Exit codes: 0 success, 2 validation/parse error (including an ``--out``
file that cannot be written), 3 transport error, 4 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from pathlib import Path

from . import analysis
from .baselines import exact_count_dp, monte_carlo
from .bounds import rate_for_confidence, required_samples, solve_confidence
from .errors import (PacreachError, ResourceCapError, TransportError,
                     ValidationError)
from .learner import ORACLE_ALL_SAFE, ORACLE_PAPER_LITERAL
from .mealy import MealyMachine
from .models import resolve_model
from .seeding import derive_seed
from .sul import MachineSafetyQuery
from .wire import (BlackBoxConfig, RemoteSafetyQuery, parse_host_port,
                   serve_stdio, serve_tcp)

__all__ = ["main"]


def _add_target_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", metavar="PATH",
                   help="model file path or bundled model name")
    p.add_argument("--endpoint", metavar="ADDR",
                   help="host:port of a live wire-protocol server")
    p.add_argument("--cmd", metavar="COMMAND",
                   help="subprocess command speaking the wire protocol "
                        "on stdio")
    p.add_argument("--unsafe-outputs", metavar="TOK[,TOK...]",
                   help="output tokens classified unsafe "
                        "(required with --endpoint/--cmd)")
    p.add_argument("--timeout", type=float,
                   help="seconds to wait for each reply line from "
                        "--endpoint/--cmd, not for a whole query "
                        f"(default {BlackBoxConfig.timeout:g})")
    p.add_argument("--retries", type=int,
                   help="reconnect attempts for --endpoint/--cmd "
                        f"(default {BlackBoxConfig.max_retries})")


@contextlib.contextmanager
def _open_target(args):
    """Yields (target, display name): a MealyMachine or a black box.

    A black box's connection, and the child process behind ``--cmd``, is
    closed when the block exits.
    """
    if sum(map(bool, (args.model, args.endpoint, args.cmd))) != 1:
        raise ValidationError(
            "exactly one of --model / --endpoint / --cmd is required")
    if args.model:
        for flag, value in (("--unsafe-outputs", args.unsafe_outputs),
                            ("--timeout", args.timeout),
                            ("--retries", args.retries)):
            if value is not None:
                raise ValidationError(
                    f"{flag} applies only to --endpoint / --cmd")
        machine = resolve_model(args.model)
        yield machine, Path(args.model).stem
        return
    # blanks around a comma are not part of a token; empty pieces drop
    tokens = {t.strip() for t in (args.unsafe_outputs or "").split(",")} - {""}
    # a flag left out keeps BlackBoxConfig's default
    given = {key: value for key, value in (("timeout", args.timeout),
                                           ("max_retries", args.retries))
             if value is not None}
    config = BlackBoxConfig(
        command=args.cmd, address=args.endpoint, unsafe_outputs=tokens,
        **given)
    name = args.endpoint or config.argv[0]
    with RemoteSafetyQuery(config) as remote:
        yield remote, name


def _check_out(out: str | None):
    """Fail an ``--out`` whose directory is missing before any work.

    ``_emit`` still turns any later write failure into the same error.
    """
    if out and not Path(out).parent.is_dir():
        raise ValidationError(
            f"cannot write {out}: no directory {Path(out).parent}")


def _emit(text: str, out: str | None):
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValidationError(
                f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _render_report(report: analysis.AnalysisReport, fmt: str | None) -> str:
    if fmt == "csv":
        return analysis.reports_to_csv([report])
    if fmt == "json-lines":
        return analysis.reports_to_json_lines([report])
    data = report.to_json_dict()
    stats = data.pop("stats")
    data.update((f"stats.{key}", value) for key, value in stats.items())
    lines = []
    for key, value in data.items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


# -- subcommands ---------------------------------------------------------------


def _cmd_analyze(args) -> int:
    _check_out(args.out)
    with _open_target(args) as (target, name):
        report = analysis.analyze(
            target, horizon=args.n, model_name=name,
            sample_budget=args.samples, target_confidence=args.confidence,
            d_bound=args.d_bound, seed=args.seed,
            oracle_semantics=args.oracle_semantics)
    _emit(_render_report(report, args.format), args.out)
    return 0


def _cmd_exact(args) -> int:
    machine = resolve_model(args.model)
    census = exact_count_dp(machine, args.n, semantics=args.semantics)
    print(f"safe_paths: {census.safe_paths}")
    print(f"total_paths: {census.total_paths}")
    print(f"probability: {census.probability!r}")
    return 0


def _cmd_estimate(args) -> int:
    with _open_target(args) as (target, _name):
        if isinstance(target, MealyMachine):
            target = MachineSafetyQuery(target)
        seed = derive_seed(args.seed, "estimate")
        mc = monte_carlo(target, args.n, args.samples, seed)
    print(f"samples: {mc.samples}")
    print(f"safe_hits: {mc.safe_hits}")
    print(f"estimate: {mc.estimate!r}")
    print(f"std_error: {mc.std_error!r}")
    return 0


def _cmd_sample_size(args) -> int:
    if (args.inverse_error is None) == (args.confidence is None):
        raise ValidationError(
            "exactly one of --inverse-error / --confidence is required")
    if args.inverse_error is not None:
        rate = args.inverse_error
    else:
        rate = rate_for_confidence(args.confidence)
    if args.d_bound is None:
        raise ValidationError("--d-bound is required")
    print(required_samples(rate, args.d_bound))
    return 0


def _cmd_confidence(args) -> int:
    if args.d_bound is None:
        raise ValidationError("--d-bound is required")
    bound = solve_confidence(args.samples, args.d_bound)
    print(f"inverse_error: {bound.inverse_error!r}")
    print(f"confidence: {bound.confidence!r}")
    return 0


def _cmd_reproduce_table(args) -> int:
    _check_out(args.out)
    result = analysis.reproduce_table(seed=args.seed,
                                      sample_budget=args.samples)
    if args.format == "json-lines":
        table_text = analysis.reports_to_json_lines(result.reports)
    else:
        table_text = result.csv_text
    _emit(table_text, args.out)
    (sys.stdout if args.out else sys.stderr).write(result.diff_text)
    return 0


def _cmd_serve_model(args) -> int:
    if args.max_sessions is not None and not args.listen:
        raise ValidationError("--max-sessions applies only to --listen")
    if args.max_sessions is not None and args.max_sessions < 1:
        raise ValidationError(
            f"--max-sessions must be >= 1, got {args.max_sessions}")
    machine = resolve_model(args.model)
    if args.listen:
        host, port = parse_host_port(args.listen)

        def ready(bound_host, bound_port):
            print(f"LISTENING {bound_host} {bound_port}", flush=True)

        serve_tcp(machine, host, port, ready=ready,
                  max_sessions=args.max_sessions)
    else:
        serve_stdio(machine)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacreach",
        description="Safety probability estimation for black-box state "
                    "machines, with a learned confidence level.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log learner progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full learning pipeline")
    _add_target_flags(p)
    p.add_argument("-n", type=int, required=True, help="horizon")
    p.add_argument("-L", dest="samples", type=int,
                   help="sample budget (budget mode)")
    p.add_argument("--confidence", type=float,
                   help="target confidence (sizing mode)")
    p.add_argument("--d-bound", type=int,
                   help="covered-count estimate that sizes sizing "
                        "mode's first round (default 0)")
    p.add_argument("--seed", type=int, default=analysis.DEFAULT_SEED)
    p.add_argument("--oracle-semantics", default=ORACLE_ALL_SAFE,
                   choices=[ORACLE_ALL_SAFE, ORACLE_PAPER_LITERAL])
    p.add_argument("--format", choices=["csv", "json-lines"])
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("exact", help="exact safe-path census (white-box)")
    p.add_argument("--model", required=True, metavar="PATH")
    p.add_argument("-n", type=int, required=True, help="horizon")
    p.add_argument("--semantics", default="final",
                   choices=["final", "always"],
                   help="safe at the final step only, or at every step")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("estimate", help="Monte Carlo safety estimate")
    _add_target_flags(p)
    p.add_argument("-n", type=int, required=True, help="horizon")
    p.add_argument("-L", dest="samples", type=int, default=1000,
                   help="number of random sequences")
    p.add_argument("--seed", type=int, default=analysis.DEFAULT_SEED)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("sample-size",
                       help="budget required by the learning bound")
    p.add_argument("--inverse-error", type=float,
                   help="the bound's rate knob, > 1")
    p.add_argument("--confidence", type=float,
                   help="alternatively, the target confidence in (0,1)")
    p.add_argument("--d-bound", type=int,
                   help="(upper bound on the) covered count")
    p.set_defaults(func=_cmd_sample_size)

    p = sub.add_parser("confidence",
                       help="confidence achieved by a given budget")
    p.add_argument("-L", dest="samples", type=int, required=True)
    p.add_argument("--d-bound", type=int, help="covered count")
    p.set_defaults(func=_cmd_confidence)

    p = sub.add_parser("reproduce-table",
                       help="re-run the published table rows and diff")
    p.add_argument("--seed", type=int, default=analysis.DEFAULT_SEED)
    p.add_argument("-L", dest="samples", type=int,
                   default=analysis.TABLE_BUDGET)
    p.add_argument("--format", choices=["csv", "json-lines"], default="csv")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_reproduce_table)

    p = sub.add_parser("serve-model",
                       help="serve a model file over the wire protocol")
    p.add_argument("--model", required=True, metavar="PATH")
    transport = p.add_mutually_exclusive_group()
    transport.add_argument("--stdio", action="store_true",
                           help="serve on stdio (the default)")
    transport.add_argument("--listen", metavar="HOST:PORT",
                           help="serve on TCP instead of stdio")
    p.add_argument("--max-sessions", type=int,
                   help="exit after serving this many connections")
    p.set_defaults(func=_cmd_serve_model)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO,
                            format="%(name)s: %(message)s")
    try:
        return args.func(args)
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except PacreachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
