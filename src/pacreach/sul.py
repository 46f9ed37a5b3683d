"""The single question every engine asks: is this input sequence safe?

SafetyQuery abstracts over where the answer comes from. The in-process
adapter wraps a MealyMachine and reads the verdict off the final state;
the wire adapter (see wire.py) drives an external process or socket and
classifies the final output token. Every adapter fixes its input
alphabet when it is built: the machine's declared inputs, or the wire's
ALPHABET handshake. The learner, the Monte Carlo baseline and the CLI
all talk to this interface only, so a model file and a live black box
are interchangeable. The learner has an adapter generalize one example
at a time (``SafetyQuery.generalize``): a black box asks about its n
candidates one by one, a machine answers them all in one sweep.

The learner and the Monte Carlo baseline take random input runs from
one stream, ``SafetyQuery.draws``: the sequences that ``rng.choice``
would pick, symbol by symbol, read from the generator in blocks, each
with its verdict. Told how many runs its consumer will take for certain
(``Draws``), a black box answers that many per round trip; by default
each goes through ``is_safe``. A machine folds the symbol numbers over
its numbered states and builds the symbol tuple of a safe run only.
"""

from __future__ import annotations

import random
import sys
from abc import ABC, abstractmethod
from typing import Sequence

from .errors import ValidationError, check_int
from .mealy import MealyMachine
from .monomials import Monomial

__all__ = ["Draws", "SafetyQuery", "MachineSafetyQuery"]

# SafetyQuery.draws reads its generator this many 32-bit words at a time.
DRAW_BLOCK_WORDS = 4096


class Draws:
    """The stream of runs that ``SafetyQuery.draws`` returns; iterating
    it continues one iterator of items. ``will_take`` is how many more
    items the consumer will take for certain, kept per stream, so a
    count that a failed run left widens no other stream's windows. A
    black box asks about that many runs at once and takes 1 off per
    item taken (``RemoteSafetyQuery``); other adapters ignore it.
    """

    will_take = 0

    def __iter__(self):
        return self.items


class SafetyQuery(ABC):
    """Deterministic safety membership queries over a fixed input alphabet.

    The alphabet is fixed when the adapter is built: a subclass passes it
    to ``__init__``, which keeps it as the tuple ``input_alphabet`` (its
    order is canonical). An empty one is a ValidationError, and so is one
    that repeats a symbol: it would count some sequences more than once.

    ``query_count`` counts answered queries; failed queries (transport
    errors and the like) do not count. ``is_safe`` answers one and adds
    1, and so does each item taken from ``draws``. ``answer_monomial``
    runs its expansion loop through ``is_safe``. ``generalize`` adds the
    queries the loops over its candidates make: by default it runs them;
    ``MachineSafetyQuery`` computes them without running them.
    Implementations must be deterministic: the same sequence always gets
    the same verdict.
    """

    def __init__(self, input_alphabet: Sequence[str]):
        self.input_alphabet = tuple(input_alphabet)
        if not self.input_alphabet:
            raise ValidationError("input alphabet is empty")
        self._symbol_set = frozenset(self.input_alphabet)
        if len(self._symbol_set) < len(self.input_alphabet):
            raise ValidationError("input alphabet repeats a symbol")
        self.query_count = 0

    @abstractmethod
    def _answer(self, seq: tuple[str, ...]) -> bool:
        """Produce the verdict for one sequence."""

    def is_safe(self, seq: Sequence[str]) -> bool:
        symbols = tuple(seq)
        if not self._symbol_set.issuperset(symbols):
            unknown = [s for s in symbols if s not in self._symbol_set]
            raise ValidationError(f"symbols not in alphabet: {unknown}")
        verdict = self._answer(symbols)
        self.query_count += 1
        return verdict

    def answer_monomial(self, candidate: Monomial, want_all: bool) -> bool:
        """Whether every (``want_all``) or some covered sequence is safe.

        Queries the covered sequences in ``candidate.expand`` order and
        stops at the first one that decides the answer: an unsafe one
        when ``want_all``, else a safe one.
        """
        for seq in candidate.expand(self.input_alphabet):
            if self.is_safe(seq) != want_all:
                return not want_all
        return want_all

    def generalize(self, example: Monomial, want_all: bool,
                   max_free: int) -> Monomial:
        """The learner's generalization of one fully bound example.

        For step 1..n in turn, keep ``example.without(step)`` when
        ``answer_monomial`` accepts it, until ``max_free`` steps are
        free. A bad example (no step, a free step, a symbol outside the
        alphabet) raises ValidationError before any query.
        """
        self._check_example(example)
        free = 0
        for pos in range(1, example.horizon + 1):
            candidate = example.without(pos)
            if free < max_free and self.answer_monomial(candidate, want_all):
                example, free = candidate, free + 1
        return example

    def _check_example(self, example: Monomial) -> None:
        if not example.symbols:
            raise ValidationError("horizon must be >= 1, got 0")
        if None in example.symbols:
            raise ValidationError(f"example {example} is not fully bound")
        example.check_alphabet(self.input_alphabet)

    def draws(self, n: int, rng: random.Random) -> Draws:
        """Uniform random length-n sequences with their verdicts, lazily.

        Item j is ``(safe, seq)`` for the j-th n symbols that repeated
        ``rng.choice(alphabet)`` calls pick on a twin of ``rng``. Taking
        an item adds 1 to ``query_count``; no query runs before its item
        is taken, or before ``will_take`` says it will be. ``seq`` may
        be None where ``safe`` is false.

        ``rng`` is read in blocks of ``DRAW_BLOCK_WORDS`` words, so its
        state afterwards is not that of the twin: pass a generator that
        nothing else reads. A horizon that is not an int >= 1 raises
        ValidationError here, before ``rng`` is read.
        """
        check_int("horizon", n, 1)
        stream = Draws()
        blocks = _choice_blocks(n, len(self.input_alphabet), rng)
        stream.items = self._draws(n, self.input_alphabet, blocks, stream)
        return stream

    def _draws(self, n, alphabet, blocks, stream):
        # the default: one is_safe call per sequence
        for block in blocks:
            for start in range(0, len(block), n):
                seq = _symbols(alphabet, block[start:start + n])
                yield self.is_safe(seq), seq


def _symbols(alphabet: tuple[str, ...], numbers) -> tuple[str, ...]:
    # through a list: tuple() of an iterator of unknown length
    # over-allocates, and learned sets and reports keep these tuples
    return tuple([alphabet[r] for r in numbers])


def _choice_blocks(n: int, k: int, rng: random.Random):
    """The symbol numbers that ``rng.choice`` over k symbols picks, read
    in blocks, for draw after draw of n symbols each.

    Yields sequences of symbol numbers whose lengths are multiples of
    n; draw j is items ``[j*n, (j+1)*n)`` of their concatenation. One
    ``getrandbits(32 * DRAW_BLOCK_WORDS)`` call stands for that many
    one-word calls: CPython fills a wide result from the least
    significant 32-bit word up, one generator word per 32 bits, and
    ``Random.choice`` over k < 2**32 symbols tries ``getrandbits(bits)``
    for ``bits = k.bit_length()``, the top ``bits`` bits of one word,
    until the result is below k. For k <= 255 the top byte of each word,
    shifted right by ``8 - bits`` and dropped when k or more, is the
    stream of picks, computed by one ``bytes.translate``. Larger
    alphabets take the native 32-bit words of the block, shifted right
    by ``32 - bits``, the same way.
    """
    words, bits = DRAW_BLOCK_WORDS, k.bit_length()
    if k <= 255:
        shift = 8 - bits
        picks = [byte >> shift for byte in range(256)]
        table = bytes(r if r < k else 0 for r in picks)
        reject = bytes(byte for byte, r in enumerate(picks) if r >= k)
        left = b""

        def choose(block: int) -> bytes:
            raw = block.to_bytes(4 * words, "little")
            return raw[3::4].translate(table, reject)
    else:
        shift, left = 32 - bits, []

        def choose(block: int) -> list[int]:
            raw = block.to_bytes(4 * words, sys.byteorder)
            return [r for word in memoryview(raw).cast("I")
                    if (r := word >> shift) < k]
    while True:
        stream = left + choose(rng.getrandbits(32 * words))
        whole = len(stream) - len(stream) % n
        left = stream[whole:]
        if whole:
            yield stream[:whole]


class MachineSafetyQuery(SafetyQuery):
    """In-process adapter: run the machine, check the final state.

    The machine is indexed once, here. States are numbered in declared
    order: ``_succ[sym][k]`` is the state number that ``sym`` leads to
    from state k; it is the adapter's only transition table. Masks
    ``_safe`` and ``_unsafe`` split the states, and ``_initial`` is a
    number. A query folds ``_succ`` from ``_initial`` and reads one bit
    of ``_safe``; no output trace is built. ``draws`` folds the symbol
    numbers it reads from the generator the same way, without building
    a symbol tuple for an unsafe draw.

    A whole example is generalized without running its candidates'
    sequences, by one sweep over sets of states: a backward pass over its
    bound suffixes (the bounded-reachability step of symbolic model
    checking) and a forward one over the kept prefix. Each direction
    keeps a memo of its steps, keyed by (symbol or None, mask), so at
    most (|I| + 1) * 2^|S| entries each. ``query_count`` still grows by
    exactly the number of queries the default loops would have made, so
    the counts in a report do not depend on which way it was answered.
    A single candidate (``answer_monomial``) takes the default loop.
    """

    def __init__(self, machine: MealyMachine):
        super().__init__(machine.inputs)
        self.machine = machine
        number = {s: k for k, s in enumerate(machine.states)}
        self._succ = {
            sym: [number[machine.transitions[(s, sym)][0]]
                  for s in machine.states]
            for sym in machine.inputs}
        self._initial = number[machine.initial]
        self._safe = sum(1 << number[s] for s in machine.safe_states)
        self._unsafe = (1 << len(machine.states)) - 1 - self._safe
        self._image, self._forward = {}, {}  # _across, backward and forward

    def _answer(self, seq: tuple[str, ...]) -> bool:
        state = self._initial
        for sym in seq:
            state = self._succ[sym][state]
        return bool(self._safe >> state & 1)

    def _draws(self, n, alphabet, blocks, stream):
        # the verdict of _answer, folded over symbol numbers; the string
        # tuple is built for a safe draw only
        succ = [self._succ[sym] for sym in alphabet]
        initial, safe = self._initial, self._safe
        for block in blocks:
            for start in range(0, len(block), n):
                run, state = block[start:start + n], initial
                for r in run:
                    state = succ[r][state]
                self.query_count += 1
                if safe >> state & 1:
                    yield True, _symbols(alphabet, run)
                else:
                    yield False, None

    def _across(self, sym: str | None, mask: int, forward=False) -> int:
        """The mask of states from which ``sym`` (any symbol, for None)
        leads into ``mask``; with ``forward``, of the states it leads to
        from ``mask``. Read off ``_succ`` once per key."""
        memo = self._forward if forward else self._image
        into = memo.get((sym, mask))
        if into is not None:
            return into
        into = 0
        for succ in self._succ.values() if sym is None else [self._succ[sym]]:
            for k, dst in enumerate(succ):
                into |= ((mask >> k & 1) << dst if forward
                         else (mask >> dst & 1) << k)
        memo[sym, mask] = into
        return into

    def _stops(self, symbols, want_all: bool) -> list[int]:
        """stop[pos]: the states from which the bound suffix symbols[pos:]
        ends in a stopping state: unsafe if ``want_all``, else safe."""
        stop = [0] * len(symbols) + [self._unsafe if want_all else self._safe]
        for pos in range(len(symbols) - 1, -1, -1):
            stop[pos] = self._across(symbols[pos], stop[pos + 1])
        return stop

    def generalize(self, example: Monomial, want_all: bool,
                   max_free: int) -> Monomial:
        """The default loop's monomial and query count, in one sweep.

        Candidate q is the kept prefix, a free step q and the example's
        own suffix, so the loop stops on it iff ``reach``, the states the
        kept prefix leads to, meets the preimage of ``after[q + 1]``, the
        example's ``_stops``. Only a candidate that stops is walked.
        """
        self._check_example(example)
        after = self._stops(example.symbols, want_all)
        kept, reach, free = list(example.symbols), 1 << self._initial, []
        for q in range(len(kept)):
            if len(free) >= max_free:
                break
            stop = self._across(None, after[q + 1])
            stops = bool(reach & stop)
            if stops:  # walk to q only (bound steps add no queries),
                masks = after[:]  # filling masks for its free steps only
                masks[q] = stop
                for pos in range(q - 1, free[0] if free else q, -1):
                    masks[pos] = self._across(kept[pos], masks[pos + 1])
                self.query_count += self._walk(kept[:q] + [None], masks)
            else:
                self.query_count += len(self._succ) ** (len(free) + 1)
            if stops != want_all:
                kept[q] = None
                free.append(q)
            reach = self._across(kept[q], reach, forward=True)
        return Monomial(tuple(kept))

    def _walk(self, symbols, stop: list[int]) -> int:
        """The queries the default loop makes up to its first stopping
        sequence, which must exist, reading ``stop[pos + 1]`` at each
        free step: it passes each sibling subtree on the way in full."""
        alphabet = self.input_alphabet
        queries, state = 1, self._initial
        free_after = symbols.count(None)
        for pos, sym in enumerate(symbols):
            if sym is not None:
                state = self._succ[sym][state]
                continue
            free_after -= 1
            for choice in alphabet:
                if stop[pos + 1] >> self._succ[choice][state] & 1:
                    break
                queries += len(alphabet) ** free_after
            state = self._succ[choice][state]
        return queries
