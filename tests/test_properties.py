"""Randomized and exhaustive structural invariants.

Each class here checks one law over a family of generated instances.  The
whole file is budgeted to stay well under two minutes.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from permdfa import (
    Basis,
    DFA,
    Perm,
    bases_conjugate,
    classify_component,
    conjugate,
    direct_product,
    distinguishability_complexity,
    equivalence_classes,
    flat_final_set,
    from_basis,
    generates_symmetric,
    minimize,
    pair_graph,
    predict_connected,
    proper_functions,
    reachable_states,
    transition_semigroup,
)
from permdfa.automaton import moore_complexity
from permdfa.harness import enumerate_bases
from permdfa.product import all_distinguished


def perms(max_degree=8):
    return st.integers(2, max_degree).flatmap(
        lambda d: st.permutations(list(range(d))).map(
            lambda images: Perm(list(images))))


def perm_pairs(max_degree=8):
    return st.integers(2, max_degree).flatmap(
        lambda d: st.tuples(
            st.permutations(list(range(d))).map(lambda i: Perm(list(i))),
            st.permutations(list(range(d))).map(lambda i: Perm(list(i)))))


def perm_triples(max_degree=6):
    return st.integers(2, max_degree).flatmap(
        lambda d: st.tuples(*(
            st.permutations(list(range(d))).map(lambda i: Perm(list(i)))
            for _ in range(3))))


def _random_basis(rng, degree):
    while True:
        s = list(range(degree))
        rng.shuffle(s)
        t = list(range(degree))
        rng.shuffle(t)
        if generates_symmetric([Perm(s), Perm(t)]):
            return Basis(Perm(s), Perm(t))


def _random_connected_pair(rng, m, n):
    while True:
        b1 = _random_basis(rng, m)
        b2 = _random_basis(rng, n)
        if predict_connected(b1, b2):
            return b1, b2


class TestGroupAxioms:
    @given(perm_triples())
    def test_composition_associative(self, triple):
        p, q, r = triple
        assert (p * q) * r == p * (q * r)

    @given(perms())
    def test_identity_laws(self, p):
        e = Perm.identity(p.degree)
        assert p * e == p
        assert e * p == p

    @given(perms())
    def test_inverse_laws(self, p):
        e = Perm.identity(p.degree)
        assert p * p.inverse() == e
        assert p.inverse() * p == e

    @given(perm_pairs())
    def test_inverse_antihomomorphism(self, pair):
        p, q = pair
        assert (p * q).inverse() == q.inverse() * p.inverse()


def _cycle_type(p):
    return sorted(len(c) for c in p.cycles())


class TestConjugationRelabels:
    @given(perm_pairs())
    def test_cycle_type_preserved(self, pair):
        g, r = pair
        assert _cycle_type(conjugate(r, g)) == _cycle_type(g)

    @given(perm_pairs())
    def test_pointwise_relabeling(self, pair):
        g, r = pair
        h = conjugate(r, g)
        for x in range(g.degree):
            assert h(r(x)) == r(g(x))

    @given(perm_triples())
    def test_action_composes(self, triple):
        g, r1, r2 = triple
        assert conjugate(r1 * r2, g) == conjugate(r1, conjugate(r2, g))


def _random_dfa(rng):
    states = rng.randrange(2, 37)
    letters = tuple("abc"[: rng.randrange(1, 4)])
    actions = {
        letter: tuple(rng.randrange(states) for _ in range(states))
        for letter in letters
    }
    finals = {q for q in range(states) if rng.random() < 0.4}
    return DFA(states, letters, actions, 0, finals)


class TestMinimizationOracles:
    def test_partition_and_pairwise_routes_agree(self):
        # Moore refinement and pairwise marking are written independently;
        # they must produce the same count on anything we throw at them.
        rng = random.Random(1009)
        for _ in range(200):
            d = _random_dfa(rng)
            assert minimize(d)[1] == distinguishability_complexity(d)

    def test_minimized_dfa_is_its_own_fixpoint(self):
        rng = random.Random(77)
        for _ in range(40):
            small, k = minimize(_random_dfa(rng))
            assert small.state_count == k
            again, k2 = minimize(small)
            assert k2 == k


class TestComplementInvariance:
    # Campaigns judge each {mask, ~mask} once per basis pair; this is the
    # lemma that makes the reuse sound.
    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32),
           st.integers(0, 2**25 - 1))
    def test_complement_keeps_both_routes(self, m, n, seed, bits):
        rng = random.Random(seed)
        p = direct_product(from_basis(_random_basis(rng, m)),
                           from_basis(_random_basis(rng, n)))
        full = (1 << (m * n)) - 1
        mask = bits & full
        actions = [p.actions[letter] for letter in p.alphabet]
        reach = reachable_states(p)
        components = pair_graph(p).components
        assert (moore_complexity(actions, reach, mask, m * n)
                == moore_complexity(actions, reach, full ^ mask, m * n))
        assert (all_distinguished(components, mask)
                == all_distinguished(components, full ^ mask))


class TestEqualClassSizes:
    def test_connected_product_classes_are_blocks(self):
        # in a connected permutation product every equivalence class has
        # the same size, which therefore divides m*n
        rng = random.Random(4242)
        ops = list(proper_functions())
        for _ in range(100):
            m = rng.randrange(2, 6)
            n = rng.randrange(2, 6)
            b1, b2 = _random_connected_pair(rng, m, n)
            p = direct_product(from_basis(b1), from_basis(b2))
            F = {i for i in range(m) if rng.random() < 0.5}
            G = {j for j in range(n) if rng.random() < 0.5}
            finals = flat_final_set(rng.choice(ops), F, m, G, n)
            d = DFA(p.state_count, p.alphabet, dict(p.actions), 0, finals)
            classes = equivalence_classes(d)
            sizes = {len(c) for c in classes}
            assert len(sizes) == 1
            assert m * n % sizes.pop() == 0


class TestComponentStructure:
    def _check_pair(self, b1, b2):
        m, n = b1.degree, b2.degree
        p = direct_product(from_basis(b1), from_basis(b2))
        g = pair_graph(p)
        for comp in g.components:
            label = classify_component(comp, m, n)
            assert label.kind in ("C1", "C2", "C3")
            assert 2 * len(comp) >= m * n

    def test_exhaustive_small_degrees(self):
        for m, n in ((2, 3), (3, 2), (2, 4), (4, 2), (3, 3)):
            for b1 in enumerate_bases(m):
                for b2 in enumerate_bases(n):
                    if not predict_connected(b1, b2):
                        continue
                    self._check_pair(b1, b2)

    def test_sampled_larger_degrees(self):
        rng = random.Random(555)
        for m, n in ((3, 4), (4, 3), (4, 4)):
            for _ in range(60):
                b1, b2 = _random_connected_pair(rng, m, n)
                self._check_pair(b1, b2)


class TestThreeExactComponents:
    def test_pair_graph_splits_into_the_three_full_classes(self):
        # with the smaller degree at least... the larger degree >= 5 and
        # degrees not both 6, the pair graph never fragments further
        rng = random.Random(99)
        degree_pairs = [(2, 5), (3, 5), (4, 5), (5, 5), (2, 6), (5, 6)]
        checked = 0
        while checked < 50:
            m, n = degree_pairs[checked % len(degree_pairs)]
            b1, b2 = _random_connected_pair(rng, m, n)
            p = direct_product(from_basis(b1), from_basis(b2))
            g = pair_graph(p)
            assert len(g.components) == 3
            labels = {classify_component(c, m, n).kind:
                      classify_component(c, m, n).exact
                      for c in g.components}
            assert labels == {"C1": True, "C2": True, "C3": True}
            checked += 1


class TestProductClosure:
    def test_degree_three_closures(self):
        # the product transition group is either everything or, exactly for
        # conjugate bases, the graph of conjugation by the witness
        full = 36
        graph_like = 6
        for b1 in enumerate_bases(3):
            left = from_basis(b1)
            for b2 in enumerate_bases(3):
                prod = direct_product(left, from_basis(b2))
                order = len(transition_semigroup(prod))
                if bases_conjugate(b1, b2) is not None:
                    assert order == graph_like
                else:
                    assert order == full
