"""Generalized input sequences and the counting behind the estimator.

A monomial is a partial input assignment over the n time steps: a
length-n tuple whose entry i is the input symbol bound at step i+1, or
None for a don't-care. It stands for the set of all concrete length-n
sequences that agree with its bound positions. A monomial set is a
disjunction of those. The sum formula count (alphabet size raised to
the number of don't-cares, summed over members) can over-count when
members overlap, so an exact union count is provided alongside it.

``str(Monomial)`` names its bound steps 1-indexed: {1=clean, 2=water}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import ResourceCapError, ValidationError, check_int

__all__ = ["Monomial", "MonomialSet"]

# count_exact gives up after visiting this many (position, live set)
# states; callers fall back to the formula count flagged as an upper bound.
DEFAULT_COUNT_CAP = 1_000_000


@dataclass(frozen=True)
class Monomial:
    """Per time step, the bound input symbol or None for a don't-care."""

    symbols: tuple[str | None, ...]

    @classmethod
    def from_sequence(cls, seq: Sequence[str]) -> "Monomial":
        """The fully-bound monomial matching exactly one sequence."""
        return cls(tuple(seq))

    @property
    def horizon(self) -> int:
        return len(self.symbols)

    def without(self, pos: int) -> "Monomial":
        """Copy with the binding at step ``pos`` dropped (a generalization)."""
        if not 1 <= pos <= self.horizon:
            raise ValidationError(f"step {pos} outside 1..{self.horizon}")
        return Monomial(self.symbols[:pos - 1] + (None,) + self.symbols[pos:])

    def covers(self, seq: Sequence[str]) -> bool:
        """True iff ``seq`` agrees with every bound position."""
        if len(seq) != self.horizon:
            raise ValidationError(
                f"sequence length {len(seq)} != horizon {self.horizon}")
        return all(s is None or s == x for s, x in zip(self.symbols, seq))

    def expansion_size(self, alphabet_size: int) -> int:
        return alphabet_size ** self.symbols.count(None)

    def check_alphabet(self, alphabet: Sequence[str]) -> None:
        """Raise ValidationError if a bound symbol is not in ``alphabet``."""
        unknown = sorted(set(self.symbols) - {None} - set(alphabet))
        if unknown:
            raise ValidationError(
                f"bound symbols not in alphabet: {unknown}")

    def expand(self, alphabet: Sequence[str]) -> Iterator[tuple[str, ...]]:
        """Iterate over every concrete sequence this monomial covers.

        Don't-care positions run through ``alphabet`` in its declared
        order, least significant position last, so the emission order is
        lexicographic over the free positions and deterministic.
        """
        self.check_alphabet(alphabet)
        return itertools.product(
            *(alphabet if s is None else (s,) for s in self.symbols))

    def __str__(self) -> str:
        inner = ", ".join(f"{pos}={s}" for pos, s in
                          enumerate(self.symbols, start=1) if s is not None)
        return "{" + inner + "}"



@dataclass
class MonomialSet:
    """A disjunction of monomials over one shared horizon, an int >= 1.

    Members keep their insertion order. ``add`` appends in place, and
    the constructor adds each member of the iterable it is given the
    same way, so every member is checked once: its horizon, and that it
    is not already present.

    ``add`` also keeps a member index that ``implies`` and
    ``count_exact`` both read. Member i is bit i of a mask. Per step,
    0-indexed, the index holds the members that leave the step free and,
    per symbol, the members that bind it. ``count_exact`` derives from
    it which members have no bound step left.
    """

    horizon: int
    monomials: list[Monomial]
    _members: set[Monomial] = field(default_factory=set, init=False,
                                    repr=False, compare=False)
    _free: list[int] = field(init=False, repr=False, compare=False)
    _bound: list[dict[str, int]] = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        check_int("horizon", self.horizon, 1)
        self._free = [0] * self.horizon
        self._bound = [{} for _ in range(self.horizon)]
        given, self.monomials = self.monomials, []
        for m in given:
            self.add(m)

    def add(self, m: Monomial) -> None:
        if m.horizon != self.horizon:
            raise ValidationError(
                f"member horizon {m.horizon} != set horizon {self.horizon}")
        if m in self._members:
            raise ValidationError(f"duplicate monomial {m}")
        bit = 1 << len(self.monomials)
        for pos, sym in enumerate(m.symbols):
            if sym is None:
                self._free[pos] |= bit
            else:
                self._bound[pos][sym] = self._bound[pos].get(sym, 0) | bit
        self._members.add(m)
        self.monomials.append(m)

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.monomials)

    def covers(self, seq: Sequence[str]) -> bool:
        return any(m.covers(seq) for m in self.monomials)

    def implies(self, v: Monomial) -> bool:
        """True iff some member's bound positions are all bound alike in v.

        Then every expansion of v is an expansion of that member. The
        test is sound but incomplete: v might be covered jointly by
        several overlapping members yet by no single one. That only
        costs redundant work downstream, never a wrong verdict.
        """
        if v.horizon != self.horizon:
            raise ValidationError(
                f"horizon mismatch: {v.horizon} vs {self.horizon}")
        # the members that agree with v at every step so far
        live = (1 << len(self.monomials)) - 1
        for free, bound, sym in zip(self._free, self._bound, v.symbols):
            live &= free if sym is None else free | bound.get(sym, 0)
            if not live:
                return False
        return bool(live)

    # -- counting ----------------------------------------------------------

    def count_formula(self, alphabet_size: int) -> int:
        """Sum of per-member expansion sizes (may over-count overlaps);
        ``alphabet_size`` is an int >= 1."""
        check_int("alphabet size", alphabet_size, 1)
        return sum(m.expansion_size(alphabet_size) for m in self.monomials)

    def count_exact(self, alphabet: Sequence[str]) -> int:
        """Number of distinct sequences covered by the union.

        Counting a union of cubes is #DNF, which is #P-hard in general;
        Karp, Luby and Madras (J. Algorithms 10(3), 1989) give a
        randomized approximation. This count is exact. It walks the
        steps in order and keys each prefix by the bitmask of members
        still consistent with it; prefixes with the same key have the
        same completions, so each (position, live set) pair is counted
        once. A live member with no bound step left covers every
        completion of the prefix. Otherwise each symbol that some live
        member binds at the next step gets its own branch, and all other
        symbols share one branch weighted by how many of them there are.

        Raises ResourceCapError once more than ``DEFAULT_COUNT_CAP``
        (position, live set) pairs have been visited; adversarial sets
        can need exponentially many. An alphabet that lacks a bound
        symbol, or repeats a symbol, raises ValidationError.
        """
        unknown = sorted({sym for bound in self._bound for sym in bound}
                         - set(alphabet))
        if unknown:
            raise ValidationError(f"bound symbols not in alphabet: {unknown}")
        if len(set(alphabet)) < len(alphabet):
            raise ValidationError("alphabet repeats a symbol")
        k, n = len(alphabet), self.horizon
        every = (1 << len(self.monomials)) - 1
        # done[pos]: the members with no bound step at or after pos
        done = [0] * n + [every]
        for pos in range(n - 1, -1, -1):
            done[pos] = done[pos + 1] & self._free[pos]
        total = 0
        visited = 0
        frontier = {every: 1}
        for pos in range(n + 1):
            successors: dict[int, int] = {}
            for live, ways in frontier.items():
                if live & done[pos]:
                    total += ways * k ** (n - pos)
                    continue
                stay = live & self._free[pos]
                others = k
                for members in self._bound[pos].values():
                    hit = live & members
                    if hit:
                        others -= 1
                        nxt = stay | hit
                        successors[nxt] = successors.get(nxt, 0) + ways
                if stay and others:
                    successors[stay] = successors.get(stay, 0) + ways * others
                if visited + len(successors) > DEFAULT_COUNT_CAP:
                    raise ResourceCapError(
                        f"exact union count visited more than "
                        f"{DEFAULT_COUNT_CAP} (position, live set) states")
            visited += len(successors)
            frontier = successors
        return total

