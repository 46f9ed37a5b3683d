import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pacreach.errors import ParseError, ResourceCapError, ValidationError
from pacreach.monomials import Monomial, MonomialSet


def mono(n, bindings):
    return Monomial.from_map(n, bindings)


def test_expand_fully_bound_is_single_sequence():
    m = mono(2, {1: "clean", 2: "clean"})
    out = list(m.expand(("clean", "water", "pod", "button")))
    assert out == [("clean", "clean")]


def test_expand_one_dont_care_walks_alphabet_in_order():
    m = mono(3, {2: "s", 3: "s"})
    out = list(m.expand(("l", "r", "s")))
    assert out == [("l", "s", "s"), ("r", "s", "s"), ("s", "s", "s")]


def test_expand_empty_bindings_is_full_cube():
    m = mono(2, {})
    out = list(m.expand(("a", "b", "c")))
    assert len(out) == 9
    assert out == list(itertools.product("abc", repeat=2))


def test_expand_rejects_foreign_symbols():
    with pytest.raises(ValidationError):
        list(mono(2, {1: "z"}).expand(("a", "b")))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.data())
def test_expansion_cardinality(n, data):
    # |expansion| == alphabet_size ** (free positions), always
    alphabet = ("x", "y", "z")
    positions = data.draw(st.sets(st.integers(1, n)))
    bindings = {p: data.draw(st.sampled_from(alphabet), label=f"sym{p}")
                for p in positions}
    m = mono(n, bindings)
    seqs = list(m.expand(alphabet))
    assert len(seqs) == 3 ** (n - len(bindings))
    assert len(set(seqs)) == len(seqs)
    assert m.expansion_size(3) == len(seqs)
    assert list(m.expand(alphabet)) == [
        s for s in itertools.product(alphabet, repeat=n) if m.covers(s)]


def test_covers_agreement_and_disagreement():
    m = mono(3, {2: "s", 3: "s"})
    assert m.covers(("l", "s", "s"))
    assert not m.covers(("l", "s", "r"))
    assert mono(3, {}).covers(("r", "r", "r"))


def test_covers_length_mismatch():
    with pytest.raises(ValidationError):
        mono(3, {1: "a"}).covers(("a", "a"))


def test_covers_iff_in_expansion():
    alphabet = ("a", "b")
    for n in (1, 2, 3):
        for bound in ({}, {1: "a"}, {n: "b"}):
            m = mono(n, bound)
            expanded = set(m.expand(alphabet))
            for seq in itertools.product(alphabet, repeat=n):
                assert m.covers(seq) == (seq in expanded)


def test_bindings_validation():
    with pytest.raises(ValidationError):
        mono(2, {3: "a"})
    with pytest.raises(ValidationError):
        mono(2, {1: "a"}).without(3)
    with pytest.raises(ValidationError):
        mono(0, {})


# -- implication ---------------------------------------------------------------

def test_implied_when_member_binds_subset():
    g = MonomialSet(3, (mono(3, {2: "s", 3: "s"}),))
    assert g.implies(mono(3, {1: "s", 2: "s", 3: "s"}))


def test_not_implied_when_member_binds_more():
    g = MonomialSet(3, (mono(3, {1: "l", 2: "s"}),))
    assert not g.implies(mono(3, {1: "l"}))


def test_empty_set_implies_nothing():
    g = MonomialSet(3, ())
    assert not g.implies(mono(3, {1: "l"}))


def test_implies_horizon_mismatch():
    g = MonomialSet(3, ())
    with pytest.raises(ValidationError):
        g.implies(mono(2, {1: "l"}))


def test_implication_soundness_exhaustive():
    # implied v => every expansion of v is covered by the set
    alphabet = ("a", "b")
    g = MonomialSet(4, (mono(4, {1: "a"}), mono(4, {2: "b", 4: "a"})))
    candidates = [mono(4, dict(zip(pos, syms)))
                  for pos in itertools.combinations(range(1, 5), 2)
                  for syms in itertools.product(alphabet, repeat=2)]
    for v in candidates:
        if g.implies(v):
            assert all(g.covers(w) for w in v.expand(alphabet))


# -- counting ------------------------------------------------------------------

def test_count_formula_nine_full_monomials():
    pairs = itertools.product(("clean", "water", "pod"), repeat=2)
    g = MonomialSet(2, tuple(mono(2, {1: a, 2: b}) for a, b in pairs))
    assert g.count_formula(4) == 9


def test_count_formula_single_empty_monomial():
    g = MonomialSet(10, (mono(10, {}),))
    assert g.count_formula(3) == 3 ** 10 == 59049


def test_count_formula_fully_bound_is_cardinality():
    seqs = list(itertools.product(("a", "b", "c", "d"), repeat=5))[:272]
    g = MonomialSet(5, tuple(Monomial.from_sequence(s) for s in seqs))
    assert g.count_formula(4) == 272


def test_count_exact_disjoint_equals_formula():
    g = MonomialSet(2, (mono(2, {1: "a"}), mono(2, {1: "b"})))
    assert g.count_exact(("a", "b")) == g.count_formula(2) == 4


def test_count_exact_overlap():
    g = MonomialSet(2, (mono(2, {1: "a"}), mono(2, {2: "a"})))
    assert g.count_formula(2) == 4
    assert g.count_exact(("a", "b")) == 3  # {aa, ab} | {aa, ba}


def test_count_exact_empty_set():
    assert MonomialSet(4, ()).count_exact(("a", "b")) == 0


@pytest.mark.parametrize("members,expected", [
    ((mono(4, {}),), 3 ** 4),  # no bound step: done from the start
    ((mono(4, {4: "b"}),), 3 ** 3),  # bound only at step n
    ((mono(4, {4: "b"}), mono(4, {1: "a"})), 2 * 3 ** 3 - 3 ** 2),
])
def test_count_exact_at_the_ends_of_the_horizon(members, expected):
    alphabet = ("a", "b", "c")
    g = MonomialSet(4, members)
    covered = sum(1 for seq in itertools.product(alphabet, repeat=4)
                  if g.covers(seq))
    assert g.count_exact(alphabet) == covered == expected


def test_counting_refuses_a_foreign_symbol_and_an_empty_alphabet():
    g = MonomialSet(2, (mono(2, {1: "z"}),))
    with pytest.raises(ValidationError, match=r"not in alphabet: \['z'\]"):
        g.count_exact(("a", "b"))
    with pytest.raises(ValidationError, match="alphabet size must be >= 1"):
        g.count_formula(0)
    # a repeated symbol would count each sequence through it twice
    with pytest.raises(ValidationError, match="repeats a symbol"):
        MonomialSet(2, (mono(2, {}),)).count_exact(("l", "l", "r"))


def test_a_member_with_no_bound_step_is_counted_without_a_walk(monkeypatch):
    # such a member is done at step 1, so no (position, live set) state
    # is visited and even a cap of 0 is not exceeded
    monkeypatch.setattr("pacreach.monomials.DEFAULT_COUNT_CAP", 0)
    g = MonomialSet(3, (mono(3, {1: "a", 3: "b"}), mono(3, {})))
    assert g.count_exact(("a", "b")) == 2 ** 3


def _random_sets(seed, how_many, n, alphabet, max_members):
    import random
    rng = random.Random(seed)
    for _ in range(how_many):
        members = []
        seen = set()
        for _ in range(rng.randint(1, max_members)):
            bindings = {p: rng.choice(alphabet)
                        for p in range(1, n + 1) if rng.random() < 0.6}
            m = mono(n, bindings)
            if m not in seen:
                seen.add(m)
                members.append(m)
        yield MonomialSet(n, tuple(members))


def test_count_exact_matches_brute_force_union():
    alphabet = ("a", "b", "c")
    for g in _random_sets(13, 40, 4, alphabet, 6):
        union = set()
        for m in g:
            union.update(m.expand(alphabet))
        assert g.count_exact(alphabet) == len(union)
        assert g.count_exact(alphabet) <= g.count_formula(3)


def test_count_exact_order_independent():
    alphabet = ("a", "b")
    for g in _random_sets(5, 20, 3, alphabet, 5):
        reordered = MonomialSet(3, tuple(reversed(g.monomials)))
        assert g.count_exact(alphabet) == reordered.count_exact(alphabet)


def test_count_exact_equals_formula_when_pairwise_disjoint():
    alphabet = ("a", "b", "c")
    g = MonomialSet(3, (mono(3, {1: "a"}), mono(3, {1: "b", 2: "a"}),
                        mono(3, {1: "c", 3: "b"})))
    assert g.count_exact(alphabet) == g.count_formula(3)


@settings(max_examples=300)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 30), st.data())
def test_count_exact_matches_brute_force_on_generated_sets(n, k, size, data):
    # None marks a don't-care, so the empty monomial is among the draws
    alphabet = "abcd"[:k]
    row = st.lists(st.sampled_from((None,) + tuple(alphabet)),
                   min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=size, max_size=size))
    g = MonomialSet(n, tuple(dict.fromkeys(
        mono(n, {p: s for p, s in enumerate(r, start=1) if s})
        for r in rows)))
    covered = sum(1 for seq in itertools.product(alphabet, repeat=n)
                  if g.covers(seq))
    assert g.count_exact(alphabet) == covered


def _implies_by_definition(g, v):
    return any(all(s is None or s == t for s, t in zip(m.symbols, v.symbols))
               for m in g)


@settings(max_examples=300)
@given(st.integers(1, 5), st.integers(1, 3), st.data())
def test_the_member_index_tracks_each_add(n, k, data):
    # after every add, implies and count_exact (which read the index
    # that add keeps) agree with their definitions on the members so far
    alphabet = "abc"[:k]
    cube = st.builds(Monomial, st.tuples(
        *[st.sampled_from((None,) + tuple(alphabet))] * n))
    members = data.draw(st.lists(cube, max_size=12, unique=True))
    probes = data.draw(st.lists(cube, min_size=1, max_size=8))
    g, union = MonomialSet(n, ()), set()
    for m in members:
        g.add(m)
        union.update(m.expand(alphabet))
        for v in probes:
            assert g.implies(v) == _implies_by_definition(g, v)
        assert g.count_exact(alphabet) == len(union)


def test_count_exact_cap_on_giant_union(monkeypatch):
    # three overlapping families whose walk needs more states than the cap
    members = tuple(mono(6, {1: "a", 2: a, 3: b, 4: c})
                    for a in "ab" for b in "ab" for c in "ab") + tuple(
        mono(6, {2: "a", 3: a, 4: b, 5: c})
        for a in "ab" for b in "ab" for c in "ab") + tuple(
        mono(6, {3: "a", 4: a, 5: b, 6: c})
        for a in "ab" for b in "ab" for c in "ab")
    g = MonomialSet(6, members)
    assert len(g) == 24
    monkeypatch.setattr("pacreach.monomials.DEFAULT_COUNT_CAP", 10)
    with pytest.raises(ResourceCapError):
        g.count_exact(("a", "b"))


def test_set_validation():
    with pytest.raises(ValidationError, match="duplicate"):
        MonomialSet(2, (mono(2, {1: "a"}), mono(2, {1: "a"})))
    with pytest.raises(ValidationError, match="horizon"):
        MonomialSet(2, (mono(3, {1: "a"}),))
    for horizon in (0, -1):
        with pytest.raises(ValidationError, match="horizon must be >= 1"):
            MonomialSet(horizon, [])
    g = MonomialSet(2, (mono(2, {1: "a"}),))
    with pytest.raises(ValidationError, match="duplicate"):
        g.add(mono(2, {1: "a"}))
    with pytest.raises(ValidationError, match="horizon"):
        g.add(mono(3, {1: "b"}))
    assert g.monomials == [mono(2, {1: "a"})]


# -- text form -----------------------------------------------------------------

def test_text_round_trip():
    g = MonomialSet(4, (mono(4, {1: "clean", 2: "water"}),
                        mono(4, {}), mono(4, {4: "pod"})))
    text = g.to_text()
    assert text.splitlines()[0] == "n=4"
    assert "{1=clean, 2=water}" in text
    again = MonomialSet.from_text(text)
    assert again == g


def test_text_parse_errors():
    with pytest.raises(ParseError):
        MonomialSet.from_text("{1=a}\n")  # missing header
    with pytest.raises(ParseError):
        MonomialSet.from_text("n=2\n1=a\n")  # missing braces
    with pytest.raises(ParseError):
        MonomialSet.from_text("n=2\n{9=a}\n")  # out of range
    with pytest.raises(ParseError):
        MonomialSet.from_text("n=2\n{x=a}\n")  # bad position
    with pytest.raises(ParseError, match="line 2"):
        MonomialSet.from_text("n=3\n{1=a, 1=b}\n")  # bound twice
    with pytest.raises(ParseError, match="line 1"):
        MonomialSet.from_text("n=0\n")  # empty horizon
    with pytest.raises(ParseError, match="line 3"):
        MonomialSet.from_text("n=2\n{1=a}\n{1=a}\n")  # duplicate member


def test_text_parse_skips_comment_lines_and_needs_a_header():
    with pytest.raises(ParseError, match="missing 'n=<horizon>' header"):
        MonomialSet.from_text("")
    g = MonomialSet.from_text("# learned set\nn=2\n  # none yet\n{1=a}\n")
    assert g == MonomialSet(2, (mono(2, {1: "a"}),))
