"""Learning the safe-path set by sampling and oracle generalization.

The loop draws a budgeted number of safe example sequences, turns each
into a fully-bound monomial, and tries to drop one bound position at a
time, keeping a drop only when the membership oracle confirms the more
general monomial still covers exclusively safe behaviour. Examples
already implied by the accumulated set are skipped but still consume
budget: the sample-size bound counts draws, not distinct ones. A run
continues to a larger budget by drawing only the examples past its own,
on the adapter and with the configuration it started with.

Oracle semantics deserve a word. The default ("all-safe") answers true
only when EVERY concrete sequence the candidate covers is safe, which
is what soundness of the learned set requires. The "paper-literal"
variant instead answers true as soon as ONE covered sequence is safe.
It is provided for comparison because published pseudocode for this
kind of oracle sometimes reads that way, but it is unsound: it happily
generalizes over unsafe behaviour. Nothing in this package uses it
except by explicit request.

The adapter generalizes a whole example (``SafetyQuery.generalize``).
A black box asks about the n candidates one at a time and runs covered
sequences until one decides each verdict; a machine computes the same
monomial, and the number of queries those loops would have made, in one
sweep over its states. Either way ``query_count`` moves by that number.

Two module constants bound the work and are read at call time:
``DEFAULT_SAMPLE_ATTEMPT_CAP`` draws per safe example, and
``DEFAULT_ORACLE_EXPANSION_CAP`` sequences per oracle call. A refusal
frees no step, so the learner has the adapter free at most the steps the
cap allows, and logs every later candidate as refused.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterator

from .errors import SamplingCapError, ValidationError, check_int
from .monomials import Monomial, MonomialSet
from .sul import SafetyQuery

__all__ = ["LearnerConfig", "LearnerStats", "learn_safe_set",
           "draw_safe_example", "query_oracle",
           "ORACLE_ALL_SAFE", "ORACLE_PAPER_LITERAL"]

log = logging.getLogger(__name__)

ORACLE_ALL_SAFE = "all-safe"
ORACLE_PAPER_LITERAL = "paper-literal"

DEFAULT_SAMPLE_ATTEMPT_CAP = 100_000
DEFAULT_ORACLE_EXPANSION_CAP = 1_000_000


@dataclass(frozen=True)
class LearnerConfig:
    """``horizon`` and ``sample_budget`` are ints >= 1, ``rng_seed`` any
    int."""

    horizon: int
    sample_budget: int
    rng_seed: int = 0
    oracle_semantics: str = ORACLE_ALL_SAFE

    def __post_init__(self):
        check_int("horizon", self.horizon, 1)
        check_int("sample_budget", self.sample_budget, 1)
        check_int("rng_seed", self.rng_seed)
        if self.oracle_semantics not in (ORACLE_ALL_SAFE,
                                         ORACLE_PAPER_LITERAL):
            raise ValidationError(
                f"unknown oracle semantics {self.oracle_semantics!r}")


@dataclass
class LearnerStats:
    """Work accounting for one learning run, kept by ``learn_safe_set``.

    ``sample_attempts`` counts every rejection-sampling draw, safe or
    not; together with ``oracle_sequence_queries`` it accounts for every
    query the adapter answered:
    query_count delta == sample_attempts + oracle_sequence_queries.
    For a machine the oracle's queries are counted, not executed: they
    are the queries the expansion loop would have made (see
    ``MachineSafetyQuery``).
    """

    examples_drawn: int = 0
    examples_skipped_implied: int = 0
    sample_attempts: int = 0
    oracle_calls: int = 0
    oracle_sequence_queries: int = 0
    wall_time: float = 0.0


def draw_safe_example(draws: Iterator) -> Monomial:
    """Rejection-sample a safe sequence; return it fully bound.

    ``draws`` is an iterator from ``sul.draws(horizon, rng)``;
    ``learn_safe_set`` passes one for all its examples, so that one
    block-read stream serves them all. Each attempt takes one item of
    it, which is one query.

    Raises SamplingCapError when ``DEFAULT_SAMPLE_ATTEMPT_CAP`` uniform
    draws all come back unsafe, the signature of a (near-)zero safety
    probability.
    """
    for safe, seq in islice(draws, DEFAULT_SAMPLE_ATTEMPT_CAP):
        if safe:
            return Monomial.from_sequence(seq)
    raise SamplingCapError(DEFAULT_SAMPLE_ATTEMPT_CAP)


def query_oracle(sul: SafetyQuery, candidate: Monomial,
                 semantics: str = ORACLE_ALL_SAFE) -> bool:
    """Decide whether a candidate generalization is acceptable.

    All-safe: true iff every covered sequence is safe (stops at the
    first unsafe one). Paper-literal: true iff any covered sequence is
    safe (stops at the first safe one; unsound, see module docstring).

    A candidate whose expansion exceeds ``DEFAULT_ORACLE_EXPANSION_CAP``
    is rejected, and logged at INFO (``-v`` shows it), rather than
    queried: "too big to check" must degrade to "keep the binding",
    never to a fabricated verdict. Past these checks every adapter answers
    by the default loop (``SafetyQuery.answer_monomial``): it runs the
    covered sequences in order until one decides, and raises
    ValidationError for a bound symbol outside the alphabet.

    ``learn_safe_set`` does not call this: it has the adapter generalize
    a whole example. It stays as the per-candidate reference that a
    machine's sweep (``MachineSafetyQuery.generalize``) must agree with,
    in verdicts and query counts, and because the benchmark's tracer
    (``perfbench/tracing.py``) patches it by name.
    """
    if semantics not in (ORACLE_ALL_SAFE, ORACLE_PAPER_LITERAL):
        raise ValidationError(f"unknown oracle semantics {semantics!r}")
    size = candidate.expansion_size(len(sul.input_alphabet))
    if size > DEFAULT_ORACLE_EXPANSION_CAP:
        log.info(
            "not generalizing %s: expansion of %d sequences exceeds cap %d",
            candidate, size, DEFAULT_ORACLE_EXPANSION_CAP)
        return False
    return sul.answer_monomial(candidate, semantics == ORACLE_ALL_SAFE)


def learn_safe_set(sul: SafetyQuery, cfg: LearnerConfig,
                   run: dict | None = None
                   ) -> tuple[MonomialSet, LearnerStats]:
    """Run the full budgeted learning loop.

    Returns the learned disjunction of monomials plus the work stats.
    With the default all-safe oracle every sequence the result covers is
    safe; the result never claims safety it has not checked.

    ``run``, a dict that starts empty, is kept across calls with growing
    budgets: each call grows its draw stream, set and stats by only the
    examples past the last budget, so it returns what a fresh run at its
    budget returns (``wall_time`` the total so far). The first call
    records its adapter and ``cfg`` in ``run``. A later call must pass
    that same adapter object and a config that differs from the recorded
    one at most in ``sample_budget``, which may not be below the examples
    drawn; anything else raises ValidationError before any query.
    """
    run = {} if run is None else run
    if not run:
        run.update(sul=sul, cfg=cfg,
                   draws=sul.draws(cfg.horizon, random.Random(cfg.rng_seed)),
                   learned=MonomialSet(cfg.horizon, ()), stats=LearnerStats())
    draws, learned, stats = run["draws"], run["learned"], run["stats"]
    if (sul is not run["sul"] or cfg.sample_budget < stats.examples_drawn
            or cfg != replace(run["cfg"], sample_budget=cfg.sample_budget)):
        raise ValidationError(
            f"a run continues only on its own adapter and config, with a "
            f"sample budget not below the {stats.examples_drawn} examples "
            f"drawn: it started as {run['cfg']}, got {cfg}")
    items, cap = iter(draws), DEFAULT_SAMPLE_ATTEMPT_CAP
    k, expansion_cap = len(sul.input_alphabet), DEFAULT_ORACLE_EXPANSION_CAP
    max_free = 0  # the most free steps a candidate under the cap can have
    while max_free < cfg.horizon and k ** (max_free + 1) <= expansion_cap:
        max_free += 1
    started = time.perf_counter()
    for left in range(cfg.sample_budget - stats.examples_drawn, 0, -1):
        # each example left takes a draw, unless the cap ends this one
        draws.will_take = left if left < cap else cap
        before = sul.query_count
        example = draw_safe_example(items)
        stats.sample_attempts += sul.query_count - before
        stats.examples_drawn += 1
        if learned.implies(example):
            stats.examples_skipped_implied += 1
            continue
        before = sul.query_count
        example = sul.generalize(
            example, cfg.oracle_semantics == ORACLE_ALL_SAFE, max_free)
        stats.oracle_calls += cfg.horizon
        stats.oracle_sequence_queries += sul.query_count - before
        free = [pos for pos, sym in enumerate(example.symbols, 1)
                if sym is None]
        if len(free) == max_free:  # every later candidate was refused
            for pos in range(max(free, default=0) + 1, cfg.horizon + 1):
                log.info("not generalizing %s: expansion of %d sequences "
                         "exceeds cap %d", example.without(pos),
                         k ** (max_free + 1), expansion_cap)
        # a duplicate would have implied the draw, which was skipped above
        learned.add(example)
        log.info("appended %s", example)
    stats.wall_time += time.perf_counter() - started
    return learned, stats
