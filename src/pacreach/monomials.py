"""Generalized input sequences and the counting behind the estimator.

A monomial is a partial input assignment over the n time steps: a
length-n tuple whose entry i is the input symbol bound at step i+1, or
None for a don't-care. It stands for the set of all concrete length-n
sequences that agree with its bound positions. A monomial set is a
disjunction of those. The sum formula count (alphabet size raised to
the number of don't-cares, summed over members) can over-count when
members overlap, so an exact union count is provided alongside it.

Time steps are 1-indexed in the text form, {1=clean, 2=water}.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ParseError, ResourceCapError, ValidationError

__all__ = ["Monomial", "MonomialSet"]

# count_exact gives up after visiting this many (position, live set)
# states; callers fall back to the formula count flagged as an upper bound.
DEFAULT_COUNT_CAP = 1_000_000


@dataclass(frozen=True)
class Monomial:
    """Per time step, the bound input symbol or None for a don't-care."""

    symbols: tuple[str | None, ...]

    @classmethod
    def from_map(cls, horizon: int, bindings: dict[int, str]) -> "Monomial":
        """Bind ``bindings[pos]`` at each 1-indexed step ``pos``."""
        if horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {horizon}")
        for pos in bindings:
            if not 1 <= pos <= horizon:
                raise ValidationError(
                    f"bound position {pos} outside 1..{horizon}")
        return cls(tuple(bindings.get(pos) for pos in range(1, horizon + 1)))

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

    def expand(self, alphabet: Sequence[str]) -> Iterator[tuple[str, ...]]:
        """Iterate over every concrete sequence this monomial covers.

        Don't-care positions run through ``alphabet`` in its declared
        order, least significant position last, so the emission order is
        lexicographic over the free positions and deterministic.
        """
        unknown = sorted(set(self.symbols) - {None} - set(alphabet))
        if unknown:
            raise ValidationError(
                f"bound symbols not in alphabet: {unknown}")
        return itertools.product(
            *(alphabet if s is None else (s,) for s in self.symbols))

    def __str__(self) -> str:
        inner = ", ".join(f"{pos}={s}" for pos, s in
                          enumerate(self.symbols, start=1) if s is not None)
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
        """True iff some member's bound positions are all bound alike in v.

        Then every expansion of v is an expansion of that member. The
        test is sound but incomplete: v might be covered jointly by
        several overlapping members yet by no single one. That only
        costs redundant work downstream, never a wrong verdict.
        """
        if v.horizon != self.horizon:
            raise ValidationError(
                f"horizon mismatch: {v.horizon} vs {self.horizon}")
        vs = v.symbols
        for m in self.monomials:
            for s, t in zip(m.symbols, vs):
                if s is not None and s != t:
                    break
            else:
                return True
        return False

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
        unknown = sorted({sym for m in self.monomials for sym in m.symbols}
                         - {None} - set(alphabet))
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
            last = 0
            for pos, sym in enumerate(m.symbols, start=1):
                if sym is None:
                    free[pos] |= bit
                else:
                    bound[pos][sym] = bound[pos].get(sym, 0) | bit
                    last = pos
            for pos in range(last + 1, n + 2):
                done[pos] |= bit
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
                if horizon < 1:
                    raise ParseError(f"horizon must be >= 1, got {horizon}",
                                     line=lineno)
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
                    pos = int(bm.group(1))
                    if pos in bindings:
                        raise ParseError(f"position {pos} bound twice",
                                         line=lineno)
                    bindings[pos] = bm.group(2)
            try:
                members.append(Monomial.from_map(horizon, bindings))
            except ValidationError as exc:
                raise ParseError(str(exc), line=lineno) from exc
        if horizon is None:
            raise ParseError("missing 'n=<horizon>' header")
        return cls(horizon, tuple(members))
