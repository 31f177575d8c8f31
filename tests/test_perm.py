import collections
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup

from permdfa import (
    Basis,
    CycleFormatError,
    DegreeMismatchError,
    NotAPermutationError,
    Perm,
    Semiautomaton,
    bases_conjugate,
    compose,
    conjugate,
    format_cycles,
    generates_symmetric,
    parse_cycles,
    transition_semigroup,
)
from permdfa import perm
from permdfa.harness import enumerate_bases
from permdfa.perm import CapExceededError, _closure_images, basis_orbits


def perms(degree):
    return st.permutations(range(degree)).map(Perm)


def any_perm(max_degree=7):
    return st.integers(2, max_degree).flatmap(perms)


class TestPerm:
    def test_identity(self):
        e = Perm.identity(4)
        assert e.is_identity()
        assert e.degree == 4
        assert [e(i) for i in range(4)] == [0, 1, 2, 3]

    def test_call_and_compose_convention(self):
        # (p * q)(i) = p(q(i)): q is applied first
        p = parse_cycles("(0,1,2)", 3)
        q = parse_cycles("(0,1)", 3)
        assert (p * q)(0) == p(q(0)) == 2
        assert p * q == parse_cycles("(0,2)", 3)
        assert q * p == parse_cycles("(1,2)", 3)
        assert compose(p, q) == p * q

    def test_rejects_non_bijections(self):
        with pytest.raises(NotAPermutationError):
            Perm([0, 0, 1])
        with pytest.raises(NotAPermutationError):
            Perm([0, 3, 1])
        with pytest.raises(NotAPermutationError):
            Perm([1, 2, 3])

    @given(any_perm())
    def test_inverse(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(perms(n), perms(n), perms(n))))
    def test_associativity(self, triple):
        p, q, r = triple
        assert (p * q) * r == p * (q * r)

    @given(any_perm())
    def test_order_matches_iteration(self, p):
        k = p.order()
        acc = Perm.identity(p.degree)
        for _ in range(k):
            acc = acc * p
        assert acc.is_identity()
        # no smaller positive power is the identity
        acc = p
        for i in range(1, k):
            assert not acc.is_identity()
            acc = acc * p

    @given(any_perm())
    def test_parity_against_sympy(self, p):
        sp = SymPerm(list(p.image))
        assert p.is_even() == sp.is_even

    @given(any_perm())
    def test_cycles_reconstruct(self, p):
        out = list(range(p.degree))
        for cyc in p.cycles():
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                out[a] = b
        assert Perm(out) == p
        for cyc in p.cycles():
            assert len(cyc) >= 2
            assert cyc[0] == min(cyc)


class TestCycleText:
    def test_parse_basic(self):
        assert parse_cycles("id", 3).is_identity()
        assert parse_cycles("(0,1)", 2) == Perm([1, 0])
        p = parse_cycles("(0,1,2)(3,4)", 5)
        assert p.image == (1, 2, 0, 4, 3)

    def test_parse_whitespace(self):
        assert parse_cycles(" (0, 1) ( 2 ,3) ", 4) == Perm([1, 0, 3, 2])

    @pytest.mark.parametrize("bad", [
        "", "(0,1", "0,1)", "(0,0)", "(0,5)", "(1)", "()", "(0,1)x",
        "(0,1)(1,2)", "id(0,1)",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(CycleFormatError):
            parse_cycles(bad, 4)

    def test_format_basic(self):
        assert format_cycles(Perm.identity(5)) == "id"
        assert format_cycles(Perm([1, 2, 0, 4, 3])) == "(0,1,2)(3,4)"

    @given(any_perm())
    def test_round_trip(self, p):
        assert parse_cycles(format_cycles(p), p.degree) == p


class TestConjugate:
    def test_worked_example(self):
        r = parse_cycles("(0,1,2)", 3)
        g = parse_cycles("(0,1)", 3)
        # r g r^-1 relabels the moved points through r
        assert conjugate(r, g) == parse_cycles("(1,2)", 3)

    @given(st.integers(3, 7).flatmap(lambda n: st.tuples(perms(n), perms(n))))
    def test_preserves_cycle_type(self, pair):
        r, g = pair
        before = sorted(len(c) for c in g.cycles())
        after = sorted(len(c) for c in conjugate(r, g).cycles())
        assert before == after

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(perms(n), perms(n))))
    def test_matches_composition(self, pair):
        r, g = pair
        assert conjugate(r, g) == r * g * r.inverse()


def generated_group(gens):
    """The group the permutations generate, as image tuples: the transition
    semigroup of nonempty words over letters acting as the permutations,
    which for permutations already holds the identity and every inverse."""
    letters = [f"g{i}" for i in range(len(gens))]
    a = Semiautomaton(gens[0].degree, letters,
                      {x: g.image for x, g in zip(letters, gens)})
    return transition_semigroup(a)


class TestGroupClosure:
    def test_symmetric_group_order(self):
        g = generated_group([parse_cycles("(0,1,2)", 3), parse_cycles("(0,1)", 3)])
        assert len(g) == 6

    def test_alternating_subgroup(self):
        g = generated_group([parse_cycles("(0,1,2)", 4), parse_cycles("(1,2,3)", 4)])
        assert len(g) == 12
        assert all(Perm(t).is_even() for t in g)

    def test_contains_identity_and_inverses(self):
        g = generated_group([parse_cycles("(0,1,2,3)", 4)])
        assert (0, 1, 2, 3) in g
        assert all(Perm(t).inverse().image in g for t in g)
        assert len(g) == 4

    @settings(max_examples=40)
    @given(st.integers(2, 5).flatmap(
        lambda n: st.lists(perms(n), min_size=1, max_size=3)))
    def test_lagrange(self, gens):
        n = gens[0].degree
        g = generated_group(gens)
        assert math.factorial(n) % len(g) == 0

    @settings(max_examples=25)
    @given(st.integers(2, 5).flatmap(
        lambda n: st.lists(perms(n), min_size=1, max_size=3)))
    def test_order_against_sympy(self, gens):
        ours = len(generated_group(gens))
        theirs = PermutationGroup(
            [SymPerm(list(p.image)) for p in gens]).order()
        assert ours == theirs

    def test_cap(self):
        # the closure of a 5-cycle stops, returning None, once it passes
        # stop_above elements, and completes when the bound is not passed
        images = [parse_cycles("(0,1,2,3,4)", 5).image]
        identity = [tuple(range(5))]
        assert _closure_images(images, identity, stop_above=3) is None
        assert len(_closure_images(images, identity, stop_above=5)) == 5


def assert_rejected(text, degree, order):
    """Check that the basis text names a group of the given order with an
    odd generator, and that the generation test rejects it; return the sympy
    group."""
    s, t = (parse_cycles(part, degree) for part in text.split(";"))
    assert not (s.is_even() and t.is_even())
    group = PermutationGroup([SymPerm(list(s.image)), SymPerm(list(t.image))])
    assert group.order() == order
    assert not generates_symmetric([s, t])
    with pytest.raises(ValueError):
        Basis(s, t)
    return group


class TestSymmetricChecks:
    def test_generates_symmetric(self):
        assert generates_symmetric(
            [parse_cycles("(0,1,2)", 3), parse_cycles("(0,1)", 3)])
        # 3-cycles alone only give the even half
        assert not generates_symmetric(
            [parse_cycles("(0,1,2)", 3), parse_cycles("(0,2,1)", 3)])
        assert generates_symmetric(
            [Perm.identity(2), parse_cycles("(0,1)", 2)])
        assert not generates_symmetric([Perm.identity(2)])

    # (basis, degree, order of the generated group): each has an odd
    # generator and is a proper subgroup of order at most the stopping bound.
    @pytest.mark.parametrize("text, degree, order", [
        ("(0,1,2,3);(0,2)", 4, 8),                # D_4, exactly the bound
        ("(0,1,2,3);(0,1)", 5, 24),               # point stabilizer, 4!
        ("(0,1,2,3,4);(1,2,4,3)", 5, 20),         # F_20
        ("(0,1,2,3,4);(0,5)(1,2)(3,4)", 6, 120),  # transitive S_5, 5!
        ("(0,1,2,3,4,5,6);(1,3,2,6,4,5)", 7, 42),  # AGL(1,7)
    ])
    def test_largest_proper_subgroups_rejected(self, text, degree, order):
        assert_rejected(text, degree, order)

    def test_generating_pairs_at_the_boundary_accepted(self):
        assert generates_symmetric([parse_cycles("(0,1,2,3,4)", 6),
                                    parse_cycles("(0,5)(1,4)(2,3)", 6)])
        assert generates_symmetric([Perm.identity(1)])
        assert Basis.parse("id;id", 1).degree == 1


class TestBasis:
    def test_accepts_generating_pair(self):
        b = Basis.parse("(0,1,2);(0,1)", 3)
        assert b.degree == 3
        assert str(b) == "(0,1,2);(0,1)"

    def test_rejects_non_generating_pair(self):
        with pytest.raises(ValueError):
            Basis.parse("(0,1,2);(0,2,1)", 3)
        with pytest.raises(ValueError):
            Basis.parse("id;id", 2)

    def test_degree_mismatch(self):
        s = parse_cycles("(0,1)", 2)
        t = parse_cycles("(0,1,2)", 3)
        with pytest.raises(DegreeMismatchError):
            Basis(s, t)

    def test_require_distinct(self):
        # equal components are accepted where they generate, at degree 2
        swap = parse_cycles("(0,1)", 2)
        assert Basis(swap, swap).s == swap

    def test_parse_shape_errors(self):
        with pytest.raises(ValueError):
            Basis.parse("(0,1,2)", 3)
        with pytest.raises(ValueError):
            Basis.parse("(0,1,2);(0,1);(0,2)", 3)


class TestBasisConjugated:
    @pytest.mark.parametrize("n", [3, 4])
    def test_equals_checked_construction(self, n):
        rs = [Perm(r) for r in itertools.permutations(range(n))]
        for b in enumerate_bases(n):
            for r in rs:
                c = b.conjugated(r)
                assert c == Basis(conjugate(r, b.s), conjugate(r, b.t))
                assert bases_conjugate(b, c) == r

    def test_seeded_degree_six(self):
        rng = random.Random(6)
        for _ in range(20):
            s, t = (Perm(rng.sample(range(6), 6)) for _ in range(2))
            if not generates_symmetric([s, t]):
                continue
            r = Perm(rng.sample(range(6), 6))
            c = Basis(s, t).conjugated(r)
            assert generates_symmetric([c.s, c.t])
            assert bases_conjugate(Basis(s, t), c) == r

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            Basis.parse("(0,1,2);(0,1)", 3).conjugated(Perm((1, 0)))


class TestBasesConjugate:
    def test_three_state_pair(self):
        b1 = Basis.parse("(0,1,2);(0,1)", 3)
        b2 = Basis.parse("(0,1,2);(1,2)", 3)
        b3 = Basis.parse("(0,1);(0,1,2)", 3)
        assert bases_conjugate(b1, b2) == parse_cycles("(0,1,2)", 3)
        assert bases_conjugate(b1, b3) is None

    def test_conjugator_actually_conjugates(self):
        b1 = Basis.parse("(0,1,2);(0,1)", 3)
        b2 = Basis.parse("(0,1,2);(1,2)", 3)
        r = bases_conjugate(b1, b2)
        assert conjugate(r, b1.s) == b2.s
        assert conjugate(r, b1.t) == b2.t

    def test_degree_two_is_equality(self):
        # S_2 is abelian, so conjugation cannot change anything
        b1 = Basis.parse("id;(0,1)", 2)
        b2 = Basis.parse("(0,1);id", 2)
        assert bases_conjugate(b1, b1) is not None
        assert bases_conjugate(b1, b2) is None

    def test_identity_conjugator_for_equal_bases(self):
        b = Basis.parse("(0,1,2,3);(0,1)", 4)
        assert bases_conjugate(b, b).is_identity()

    def test_mismatched_degrees(self):
        b1 = Basis.parse("id;(0,1)", 2)
        b2 = Basis.parse("(0,1,2);(0,1)", 3)
        with pytest.raises(DegreeMismatchError):
            bases_conjugate(b1, b2)

    @settings(max_examples=25)
    @given(st.integers(3, 5).flatmap(lambda n: st.tuples(perms(n), perms(n), perms(n))))
    def test_relabelled_basis_is_conjugate(self, triple):
        s, t, r = triple
        if not generates_symmetric([s, t]):
            return
        b1 = Basis(s, t)
        b2 = Basis(conjugate(r, s), conjugate(r, t))
        found = bases_conjugate(b1, b2)
        # the conjugator of a generating pair is unique above degree 2
        assert found == r

    def test_uniqueness_by_brute_force(self):
        b1 = Basis.parse("(0,1,2);(0,1)", 3)
        b2 = Basis.parse("(0,1,2);(1,2)", 3)
        hits = []
        for images in itertools.permutations(range(3)):
            r = Perm(images)
            if conjugate(r, b1.s) == b2.s and conjugate(r, b1.t) == b2.t:
                hits.append(r)
        assert hits == [bases_conjugate(b1, b2)]


def conjugators_by_scan(b1, b2):
    """Reference: every r of S_n, in lexicographic order, with
    r*s1*r^-1 == s2 and r*t1*r^-1 == t2, found by scanning all n! of them."""
    s1, t1 = b1.s.image, b1.t.image
    s2, t2 = b2.s.image, b2.t.image
    return [
        Perm(r) for r in itertools.permutations(range(b1.degree))
        if all(s2[r[i]] == r[s1[i]] and t2[r[i]] == r[t1[i]]
               for i in range(b1.degree))
    ]


class TestConjugacyAgainstScan:
    def check(self, b1, b2):
        hits = conjugators_by_scan(b1, b2)
        if b1.degree >= 3:
            assert len(hits) <= 1
        assert bases_conjugate(b1, b2) == (hits[0] if hits else None)
        return bool(hits)

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_pair(self, n):
        bases = enumerate_bases(n)
        found = sum(self.check(b1, b2) for b1 in bases for b2 in bases)
        # S_2 is abelian, so there a basis is conjugate only to itself;
        # above degree 2 relabelling moves each basis to n! distinct ones
        assert found == len(bases) * (1 if n == 2 else math.factorial(n))

    def test_seeded_degree_four_sample(self):
        rng = random.Random(4)
        bases = enumerate_bases(4)
        found = 0
        for _ in range(300):
            found += self.check(rng.choice(bases), rng.choice(bases))
            b = rng.choice(bases)
            r = Perm(rng.sample(range(4), 4))
            assert self.check(b, Basis(conjugate(r, b.s), conjugate(r, b.t)))
        assert found > 0


def conjugator_by_anchor_search(b1, b2):
    """Reference: bases_conjugate's anchor search on every pair, without
    its cycle-type shortcut; the conjugator with the smallest anchor."""
    n = b1.degree
    moves = ((b1.s.image, b2.s.image), (b1.t.image, b2.t.image))
    for anchor in range(n):
        r = [-1] * n
        r[0] = anchor
        stack = [0]
        consistent = True
        while stack and consistent:
            q = stack.pop()
            for g1, g2 in moves:
                v, want = g1[q], g2[r[q]]
                if r[v] < 0:
                    r[v] = want
                    stack.append(v)
                elif r[v] != want:
                    consistent = False
        if consistent and sorted(r) == list(range(n)):
            return Perm(r)
    return None


def cycle_type(p):
    return sorted([len(c) for c in p.cycles()]
                  + [1] * sum(p(i) == i for i in range(p.degree)))


class TestConjugacyShortcut:
    @pytest.mark.parametrize("n", [3, 4])
    def test_every_basis_against_anchor_search(self, n):
        # each basis with each of its conjugates and with 50 others
        rng = random.Random(n)
        bases = enumerate_bases(n)
        relabellings = [Perm(r) for r in itertools.permutations(range(n))]
        differing = 0
        for b in bases:
            others = [b.conjugated(r) for r in relabellings]
            others += rng.choices(bases, k=50)
            for other in others:
                assert bases_conjugate(b, other) == conjugator_by_anchor_search(b, other)
                differing += (cycle_type(b.s) != cycle_type(other.s)
                              or cycle_type(b.t) != cycle_type(other.t))
        assert differing > 0

    def test_equal_cycle_types_not_conjugate(self):
        # both components relabelled independently: same cycle types, and
        # the pair is almost never conjugate
        rng = random.Random(20)
        checked = 0
        while checked < 500:
            n = rng.choice((5, 6, 7))
            s, t = (Perm(rng.sample(range(n), n)) for _ in range(2))
            if not generates_symmetric([s, t]):
                continue
            s2, t2 = (conjugate(Perm(rng.sample(range(n), n)), g) for g in (s, t))
            if not generates_symmetric([s2, t2]):
                continue
            b1, b2 = Basis(s, t), Basis(s2, t2)
            if conjugator_by_anchor_search(b1, b2) is not None:
                continue
            assert bases_conjugate(b1, b2) is None
            checked += 1


def fresh_cycle_facts(p):
    """Reference for perm._cycle_facts: parity by counting inversions, the
    Jordan certificate from the powers of p (one of them is a single cycle
    of prime length l with l <= 3 or l <= n - 3), the cycle type and text
    from p.cycles()."""
    n = p.degree
    inversions = sum(p(i) > p(j) for i in range(n) for j in range(i + 1, n))
    certificate = False
    power = p
    for _ in range(p.order()):
        cycles = power.cycles()
        if len(cycles) == 1:
            k = len(cycles[0])
            certificate |= all(k % d for d in range(2, k)) and (k <= 3 or k <= n - 3)
        power = power * p
    text = "".join("(" + ",".join(map(str, c)) + ")" for c in p.cycles()) or "id"
    return inversions % 2 == 0, certificate, tuple(cycle_type(p)), text


class TestCycleFacts:
    def test_against_fresh_computation(self):
        # every permutation of degree 1-6, then 300 of degree 12: more than
        # the cache holds, so the second pass meets evicted entries
        rng = random.Random(12)
        every = [Perm(img) for n in range(1, 7)
                 for img in itertools.permutations(range(n))]
        every += [Perm(rng.sample(range(12), 12)) for _ in range(300)]
        info = perm._cycle_facts.cache_info()
        assert info.maxsize is not None and len(set(every)) > info.maxsize
        for _ in range(2):
            for p in every:
                facts = perm._cycle_facts(p.image)
                assert facts == fresh_cycle_facts(p), p
                assert (facts.even, facts.text) == (p.is_even(), format_cycles(p))
                assert parse_cycles(facts.text, p.degree) == p
                assert perm._cycle_facts.cache_info().currsize <= info.maxsize
        assert perm._cycle_facts.cache_info().currsize == info.maxsize


def generates_by_half_closure(gens):
    """Reference: close the group generated by gens, stopping once it has
    more than n!/2 elements, the order of the largest proper subgroup."""
    degree = gens[0].degree
    half = math.factorial(degree) // 2
    elements = {tuple(range(degree))}
    frontier = list(elements)
    while frontier and len(elements) <= half:
        step = []
        for x in frontier:
            for g in gens:
                y = tuple(x[i] for i in g.image)
                if y not in elements:
                    elements.add(y)
                    step.append(y)
        frontier = step
    return len(elements) > half or len(elements) == math.factorial(degree)


class TestJordanStages:
    # Primitive groups with an odd generator that a looser certificate rule
    # would accept.
    @pytest.mark.parametrize("text, degree, order", [
        # S_5 on the ten 2-subsets of 5 points. s, the image of (0,1,2)(3,4),
        # has cycle type (6,3,1): one 3-cycle, but 6 is not prime to 3.
        ("(0,4,1)(2,6,7,3,5,8);(0,4,7,9,3)(1,5,8,2,6)", 10, 120),
        # PGL(2,5) on the projective line: a 5-cycle, and 5 = n-1 > n-3.
        ("(0,1,2,3,4);(0,5)(1,2)(3,4)", 6, 120),
        # AGL(1,11), x -> x+1 and x -> 2x: an 11-cycle, and 11 = n.
        ("(0,1,2,3,4,5,6,7,8,9,10);(1,2,4,8,5,10,9,7,3,6)", 11, 110),
    ])
    def test_primitive_groups_without_certificate_rejected(self, text, degree, order):
        assert assert_rejected(text, degree, order).is_primitive()

    def test_two_subset_action_has_a_lone_cycle_of_a_prime_length(self):
        s = parse_cycles("(0,4,1)(2,6,7,3,5,8)", 10)
        assert sorted(map(len, s.cycles())) == [3, 6]

    # Transitive, with an odd generator and a transposition, but with blocks
    # of size 2: only the primitivity stage rejects them.
    @pytest.mark.parametrize("text, degree, order", [
        ("(0,2,4,1,3,5);(0,2)(1,3)", 6, 48),        # S_2 wr S_3
        ("(0,2,4,6,1,3,5,7);(0,2)(1,3)", 8, 384),   # S_2 wr S_4
    ])
    def test_imprimitive_groups_with_a_transposition_rejected(self, text, degree, order):
        group = assert_rejected(text, degree, order)
        assert group.is_transitive() and not group.is_primitive()
        assert group.contains(SymPerm(0, 1, size=degree))


class TestGenerationAgainstReferences:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_pair_against_half_closure(self, n):
        perms_n = [Perm(p) for p in itertools.permutations(range(n))]
        accepted = 0
        for s in perms_n:
            for t in perms_n:
                ours = generates_symmetric([s, t])
                assert ours == generates_by_half_closure([s, t]), (s, t)
                accepted += ours
        assert accepted == {1: 1, 2: 3, 3: 18, 4: 216, 5: 6840}[n]

    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10, 12])
    def test_seeded_pairs_against_sympy(self, n):
        rng = random.Random(n)
        outcomes = set()
        for _ in range(40):
            s, t = (Perm(rng.sample(range(n), n)) for _ in range(2))
            order = PermutationGroup(
                [SymPerm(list(s.image)), SymPerm(list(t.image))]).order()
            ours = generates_symmetric([s, t])
            assert ours == (order == math.factorial(n)), (s, t)
            outcomes.add(ours)
        assert outcomes == {True, False}


def generating_pairs_by_scan(n):
    """Reference: every ordered pair (s, t) that generates S_n, s == t only
    at degree 2, each tested on its own, lexicographic by image tuples."""
    perms_n = [Perm(p) for p in itertools.permutations(range(n))]
    return [Basis(s, t) for s in perms_n for t in perms_n
            if (s != t or n == 2) and generates_symmetric([s, t])]


def orbits_by_search(bases):
    """Reference: (index of its orbit's first basis, r) for each of the
    bases, found by conjugating each orbit's first basis by all n!
    permutations in order; each basis keeps the first r that reaches it."""
    index = {b: i for i, b in enumerate(bases)}
    table = [None] * len(bases)
    for i, first in enumerate(bases):
        if table[i] is None:
            for r in map(Perm, itertools.permutations(range(first.degree))):
                j = index[first.conjugated(r)]
                if table[j] is None:
                    table[j] = (i, r)
    return table


class TestCounting:
    def test_counts(self):
        counts = {n: len(basis_orbits(n)) for n in (1, 2, 3, 4, 5)}
        assert counts == {1: 0, 2: 3, 3: 18, 4: 216, 5: 6840}
        assert sum(1 for b, _, _ in basis_orbits(2) if b.s != b.t) == 2

    def test_cap(self):
        with pytest.raises(ValueError):
            basis_orbits(0)
        with pytest.raises(CapExceededError,
                           match="enumeration is limited to degree 5$"):
            basis_orbits(6)


class TestBasisOrbits:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_scan_and_search(self, n):
        bases = generating_pairs_by_scan(n)
        table = basis_orbits(n)
        assert [b for b, _, _ in table] == bases
        assert [(rep, r) for _, rep, r in table] == orbits_by_search(bases)

    def test_one_generation_test_per_orbit(self, monkeypatch):
        # every orbit of pairs with s != t, generating or not, is tested
        # once, at its first pair
        calls = collections.Counter()
        real = perm._images_generate_symmetric

        def counting(images, degree):
            calls[degree] += 1
            return real(images, degree)

        monkeypatch.setattr(perm, "_images_generate_symmetric", counting)
        try:
            for n in (3, 4, 5):
                basis_orbits.cache_clear()
                assert len({rep for _, rep, _ in basis_orbits(n)}) == {
                    3: 3, 4: 9, 5: 57}[n]
        finally:
            basis_orbits.cache_clear()
        assert calls == {3: 8, 4: 38, 5: 154}
