"""Generalized input sequences and the counting behind the estimator.

A monomial fixes the input symbol at some of the n time steps and
leaves the rest as don't-cares; it stands for the set of all concrete
length-n sequences that agree with its bound positions. A monomial set
is a disjunction of those. The sum formula count (alphabet size raised
to the number of free positions, summed over members) can over-count
when members overlap, so an exact union count is provided alongside it.

Time steps are 1-indexed, matching the report format {1=clean, 2=water}.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, ResourceCapError, ValidationError

__all__ = ["Monomial", "MonomialSet"]

# count_exact gives up after visiting this many (position, live set)
# states; callers fall back to the formula count flagged as an upper bound.
DEFAULT_COUNT_CAP = 1_000_000


@dataclass(frozen=True)
class Monomial:
    """A partial map from time step (1..horizon) to an input symbol."""

    horizon: int
    bindings: tuple[tuple[int, str], ...]

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        seen = set()
        for pos, _sym in self.bindings:
            if not 1 <= pos <= self.horizon:
                raise ValidationError(
                    f"bound position {pos} outside 1..{self.horizon}")
            if pos in seen:
                raise ValidationError(f"position {pos} bound twice")
            seen.add(pos)
        ordered = tuple(sorted(self.bindings))
        if ordered != self.bindings:
            object.__setattr__(self, "bindings", ordered)

    @classmethod
    def from_map(cls, horizon: int, bindings: dict[int, str]) -> "Monomial":
        return cls(horizon, tuple(sorted(bindings.items())))

    @classmethod
    def from_sequence(cls, seq: Sequence[str]) -> "Monomial":
        """The fully-bound monomial matching exactly one sequence."""
        return cls(len(seq), tuple(enumerate(seq, start=1)))

    @cached_property
    def binding_map(self) -> dict[int, str]:
        return dict(self.bindings)

    @property
    def length(self) -> int:
        """Number of bound positions."""
        return len(self.bindings)

    @property
    def free_positions(self) -> tuple[int, ...]:
        bound = {pos for pos, _ in self.bindings}
        return tuple(p for p in range(1, self.horizon + 1) if p not in bound)

    def without(self, pos: int) -> "Monomial":
        """Copy with the binding at ``pos`` dropped (a generalization)."""
        return Monomial(self.horizon,
                        tuple(b for b in self.bindings if b[0] != pos))

    def covers(self, seq: Sequence[str]) -> bool:
        """True iff ``seq`` agrees with every bound position."""
        if len(seq) != self.horizon:
            raise ValidationError(
                f"sequence length {len(seq)} != horizon {self.horizon}")
        return all(seq[pos - 1] == sym for pos, sym in self.bindings)

    def expansion_size(self, alphabet_size: int) -> int:
        return alphabet_size ** (self.horizon - self.length)

    def expand(self, alphabet: Sequence[str]) -> Iterator[tuple[str, ...]]:
        """Yield every concrete sequence this monomial covers.

        Don't-care positions run through ``alphabet`` in its declared
        order, least significant position last, so the emission order is
        lexicographic over the free positions and deterministic.
        """
        bmap = self.binding_map
        unknown = sorted(set(bmap.values()) - set(alphabet))
        if unknown:
            raise ValidationError(
                f"bound symbols not in alphabet: {unknown}")
        free = self.free_positions
        for combo in itertools.product(alphabet, repeat=len(free)):
            fill = dict(zip(free, combo))
            yield tuple(bmap[p] if p in bmap else fill[p]
                        for p in range(1, self.horizon + 1))

    def __str__(self) -> str:
        inner = ", ".join(f"{pos}={sym}" for pos, sym in self.bindings)
        return "{" + inner + "}"


_BINDING_RE = re.compile(r"^(\d+)\s*=\s*(\S+)$")


@dataclass(frozen=True)
class MonomialSet:
    """A disjunction of monomials over one shared horizon."""

    horizon: int
    monomials: tuple[Monomial, ...]

    def __post_init__(self):
        seen = set()
        for m in self.monomials:
            if m.horizon != self.horizon:
                raise ValidationError(
                    f"member horizon {m.horizon} != set horizon {self.horizon}")
            if m in seen:
                raise ValidationError(f"duplicate monomial {m}")
            seen.add(m)

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.monomials)

    def covers(self, seq: Sequence[str]) -> bool:
        return any(m.covers(seq) for m in self.monomials)

    def implies(self, v: Monomial) -> bool:
        """True iff some member's bindings are a subset of v's.

        Then every expansion of v is an expansion of that member. The
        test is sound but incomplete: v might be covered jointly by
        several overlapping members yet by no single one. That only
        costs redundant work downstream, never a wrong verdict.
        """
        if v.horizon != self.horizon:
            raise ValidationError(
                f"horizon mismatch: {v.horizon} vs {self.horizon}")
        vb = set(v.bindings)
        return any(set(m.bindings) <= vb for m in self.monomials)

    def add(self, m: Monomial) -> "MonomialSet":
        return MonomialSet(self.horizon, self.monomials + (m,))

    # -- counting ----------------------------------------------------------

    def count_formula(self, alphabet_size: int) -> int:
        """Sum of per-member expansion sizes (may over-count overlaps)."""
        if alphabet_size < 1:
            raise ValidationError("alphabet size must be >= 1")
        return sum(m.expansion_size(alphabet_size) for m in self.monomials)

    def count_exact(self, alphabet: Sequence[str],
                    cap: int = DEFAULT_COUNT_CAP) -> int:
        """Number of distinct sequences covered by the union.

        Counting a union of cubes is #DNF, which is #P-hard in general;
        Karp, Luby and Madras (J. Algorithms 10(3), 1989) give a
        randomized approximation. This count is exact. It walks
        positions 1..n and keys each prefix by the bitmask of members
        still consistent with it; prefixes with the same key have the
        same completions, so each (position, live set) pair is counted
        once. A live member with no bound position left covers all
        k ** (n - pos + 1) completions. Otherwise each symbol that some
        live member binds at ``pos`` gets its own branch, and all other
        symbols share one branch weighted by how many of them there are.

        Raises ResourceCapError once more than ``cap`` (position, live
        set) pairs have been visited; adversarial sets can need
        exponentially many.
        """
        unknown = sorted({sym for m in self.monomials
                          for _, sym in m.bindings} - set(alphabet))
        if unknown:
            raise ValidationError(f"bound symbols not in alphabet: {unknown}")
        k, n = len(alphabet), self.horizon
        # Per position: members that leave it free, members with no bound
        # position at or after it, and per symbol the members binding it.
        free = [0] * (n + 2)
        done = [0] * (n + 2)
        bound: list[dict[str, int]] = [{} for _ in range(n + 2)]
        for i, m in enumerate(self.monomials):
            bit = 1 << i
            bmap = m.binding_map
            last = max(bmap, default=0)
            for pos in range(1, n + 2):
                if pos > last:
                    done[pos] |= bit
                if pos in bmap:
                    bound[pos][bmap[pos]] = bound[pos].get(bmap[pos], 0) | bit
                else:
                    free[pos] |= bit
        total = 0
        visited = 0
        frontier = {(1 << len(self.monomials)) - 1: 1}
        for pos in range(1, n + 2):
            successors: dict[int, int] = {}
            for live, ways in frontier.items():
                if live & done[pos]:
                    total += ways * k ** (n - pos + 1)
                    continue
                stay = live & free[pos]
                others = k
                for members in bound[pos].values():
                    hit = live & members
                    if hit:
                        others -= 1
                        nxt = stay | hit
                        successors[nxt] = successors.get(nxt, 0) + ways
                if stay and others:
                    successors[stay] = successors.get(stay, 0) + ways * others
                if visited + len(successors) > cap:
                    raise ResourceCapError(
                        f"exact union count visited more than {cap} "
                        f"(position, live set) states")
            visited += len(successors)
            frontier = successors
        return total

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"n={self.horizon}"]
        lines.extend(str(m) for m in self.monomials)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MonomialSet":
        """Parse the report form: an ``n=`` header then one {..} per line."""
        horizon: int | None = None
        members: list[Monomial] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if horizon is None:
                m = re.fullmatch(r"n\s*=\s*(\d+)", line)
                if not m:
                    raise ParseError("expected 'n=<horizon>' header",
                                     line=lineno)
                horizon = int(m.group(1))
                continue
            if not (line.startswith("{") and line.endswith("}")):
                raise ParseError("expected '{pos=sym, ...}'", line=lineno)
            body = line[1:-1].strip()
            bindings: dict[int, str] = {}
            if body:
                for part in body.split(","):
                    bm = _BINDING_RE.match(part.strip())
                    if not bm:
                        raise ParseError(
                            f"bad binding {part.strip()!r}", line=lineno)
                    bindings[int(bm.group(1))] = bm.group(2)
            try:
                members.append(Monomial.from_map(horizon, bindings))
            except ValidationError as exc:
                raise ParseError(str(exc), line=lineno) from exc
        if horizon is None:
            raise ParseError("missing 'n=<horizon>' header")
        return cls(horizon, tuple(members))
