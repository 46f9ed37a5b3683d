"""Independent ground-truth engines: exact path counts and Monte Carlo.

These never look at learned monomials, which is the point: they give
the numbers the learner's output gets judged against. The dynamic
program is exact for any horizon; enumeration is a brute-force
cross-check; the Monte Carlo estimator is the sampling baseline
reported next to the learned probability.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceCapError, ValidationError, check_int
from .mealy import MealyMachine
from .sul import SafetyQuery

__all__ = ["ExactCount", "MonteCarloEstimate", "exact_count_dp",
           "exact_count_enumerate", "monte_carlo"]

# exact_count_enumerate refuses to trace more sequences than this.
ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class ExactCount:
    """Safe-path census at one horizon."""

    safe_paths: int
    total_paths: int

    @property
    def probability(self) -> float:
        return float(Fraction(self.safe_paths, self.total_paths))


@dataclass(frozen=True)
class MonteCarloEstimate:
    samples: int
    safe_hits: int

    @property
    def estimate(self) -> float:
        return self.safe_hits / self.samples

    @property
    def std_error(self) -> float:
        p = self.estimate
        return math.sqrt(p * (1.0 - p) / self.samples)


def exact_count_dp(machine: MealyMachine, n: int,
                   semantics: str = "final") -> ExactCount:
    """Count safe input sequences of length n by dynamic programming.

    Propagates path counts per state, one step at a time, in
    O(n * |S| * |I|) big-integer additions. Safe means the final state
    lies in the safe set. The "always" variant additionally drops any
    path the moment it touches an unsafe state; the two coincide when
    unsafe states are absorbing. The horizon ``n`` is an int >= 1.
    """
    check_int("horizon", n, 1)
    if semantics not in ("final", "always"):
        raise ValidationError(f"unknown semantics {semantics!r}")
    counts = dict.fromkeys(machine.states, 0)
    counts[machine.initial] = 1
    for _ in range(n):
        step = dict.fromkeys(machine.states, 0)
        for state, mass in counts.items():
            if mass == 0:
                continue
            for sym in machine.inputs:
                step[machine.transitions[(state, sym)][0]] += mass
        if semantics == "always":
            for state in machine.states:
                if state not in machine.safe_states:
                    step[state] = 0
        counts = step
    safe = sum(counts[s] for s in machine.safe_states)
    return ExactCount(safe, len(machine.inputs) ** n)


def exact_count_enumerate(machine: MealyMachine, n: int) -> ExactCount:
    """Trace every length-n sequence and count the safe ones.

    Exponential; exists to cross-check the dynamic program on small
    instances, so it refuses budgets above ``ENUMERATION_CAP``. The
    horizon ``n`` is an int >= 1.
    """
    check_int("horizon", n, 1)
    total = len(machine.inputs) ** n
    if total > ENUMERATION_CAP:
        raise ResourceCapError(
            f"{len(machine.inputs)}^{n} = {total} sequences exceeds cap "
            f"{ENUMERATION_CAP}")
    safe = sum(1 for seq in itertools.product(machine.inputs, repeat=n)
               if machine.trace(seq).safe)
    return ExactCount(safe, total)


def monte_carlo(sul: SafetyQuery, n: int, samples: int,
                seed: int) -> MonteCarloEstimate:
    """Hit ratio of `samples` uniform random sequences, with its
    normal-approximation standard error.

    Counts the safe ones among the first ``samples`` items of
    ``sul.draws``, the stream the learner draws from too, so the two
    probabilities in a report are comparable. Exactly ``samples``
    queries are answered; told so, a black box answers them in windows.
    ``samples`` is an int >= 1, ``seed`` any int, and ``sul.draws``
    checks the horizon ``n``.
    """
    check_int("samples", samples, 1)
    check_int("seed", seed)
    draws = sul.draws(n, random.Random(seed))
    draws.will_take = samples
    hits = sum(safe for safe, _ in itertools.islice(draws, samples))
    return MonteCarloEstimate(samples, hits)
