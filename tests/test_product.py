"""Products, pair graphs, structural predictions, stabilizer images."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permdfa import (
    Basis,
    BoolFn,
    DFA,
    NotAPermutationError,
    Perm,
    Semiautomaton,
    accepts,
    classify_component,
    direct_product,
    flat_final_set,
    format_pair_graph,
    from_basis,
    generates_symmetric,
    has_distinguishing_pair,
    is_connected,
    minimize,
    pair_graph,
    predict_connected,
    predict_minimal,
    product_dfa,
    proper_functions,
    stabilizer_image,
)
from permdfa.harness import enumerate_bases
from permdfa.product import PairGraph, flat_final_mask

B2 = Basis.parse("id;(0,1)", 2)
B3 = Basis.parse("(0,1,2);(0,1)", 3)


def product_23():
    return direct_product(from_basis(B2), from_basis(B3))


def _random_basis(rng, degree):
    while True:
        s = list(range(degree))
        rng.shuffle(s)
        t = list(range(degree))
        rng.shuffle(t)
        if generates_symmetric([Perm(s), Perm(t)]):
            return Basis(Perm(s), Perm(t))


class TestDirectProduct:
    def test_indexing(self):
        p = product_23()
        assert p.state_count == 6
        assert p.left_count == 2 and p.right_count == 3
        assert p.flat(1, 2) == 5
        assert p.unflat(5) == (1, 2)
        assert p.initial == 0

    def test_componentwise_action(self):
        p = product_23()
        # letter a: left id, right (0,1,2)
        assert p.actions["a"][p.flat(0, 0)] == p.flat(0, 1)
        assert p.actions["b"][p.flat(1, 2)] == p.flat(0, 2)

    def test_alphabet_mismatch(self):
        left = from_basis(B2)
        right = from_basis(B3, alphabet=("x", "y"))
        with pytest.raises(ValueError):
            direct_product(left, right)

    def test_flat_final_set(self):
        got = flat_final_set(BoolFn.by_name("and"), {0}, 2, {0, 1}, 3)
        assert got == frozenset({0, 1})
        got = flat_final_set(BoolFn.by_name("xor"), {0}, 2, {0, 1}, 3)
        assert got == frozenset({2, 3, 4})

    def test_product_dfa_language(self):
        dl = DFA(2, ("a", "b"), from_basis(B2).actions, 0, {0})
        dr = DFA(3, ("a", "b"), from_basis(B3).actions, 0, {0, 1})
        d = product_dfa(dl, dr, BoolFn.by_name("xor"))
        rng = random.Random(1)
        for _ in range(100):
            w = "".join(rng.choice("ab") for _ in range(rng.randrange(8)))
            assert accepts(d, w) == (accepts(dl, w) != accepts(dr, w))


class TestPairGraph:
    def test_vertex_count(self):
        g = pair_graph(product_23())
        assert len(g.vertices) == 15
        assert sum(len(c) for c in g.components) == 15

    def test_components_of_known_product(self):
        g = pair_graph(product_23())
        sizes = sorted(len(c) for c in g.components)
        assert sizes == [3, 3, 3, 6]

    def test_classification(self):
        g = pair_graph(product_23())
        labels = [classify_component(c, 2, 3) for c in g.components]
        kinds = sorted(lbl.kind for lbl in labels)
        assert kinds == ["C1", "C1", "C2", "C3"]
        by_kind = {lbl.kind: lbl for lbl in labels}
        assert by_kind["C2"].exact
        assert by_kind["C3"].exact
        assert not by_kind["C1"].exact

    def test_full_class_sizes(self):
        # a connected product keeps C2 and C3 whole
        b1 = Basis.parse("(0,1,2);(0,1)", 3)
        b2 = Basis.parse("(0,1);(0,1,2)", 3)
        g = pair_graph(direct_product(from_basis(b1), from_basis(b2)))
        labels = {classify_component(c, 3, 3).kind: len(c) for c in g.components}
        assert labels.get("C2") in (None, 9)
        assert labels.get("C3") in (None, 9)
        m = n = 3
        assert m * n * (m - 1) * (n - 1) // 2 == 18
        assert m * n * (n - 1) // 2 == 9
        assert n * m * (m - 1) // 2 == 9

    def test_requires_permutations(self):
        a = Semiautomaton(2, ("a",), {"a": (0, 0)})
        b = Semiautomaton(2, ("a",), {"a": (1, 0)})
        with pytest.raises(ValueError):
            pair_graph(direct_product(a, b))

    def test_components_letter_closed(self):
        rng = random.Random(17)
        for _ in range(20):
            m = rng.randrange(2, 5)
            n = rng.randrange(2, 5)
            b1 = _random_basis(rng, m)
            b2 = _random_basis(rng, n)
            p = direct_product(from_basis(b1), from_basis(b2))
            g = pair_graph(p)
            comp_of = {}
            for idx, comp in enumerate(g.components):
                for v in comp:
                    comp_of[v] = idx
            for act in p.actions.values():
                for (u, v) in g.vertices:
                    au, av = act[u], act[v]
                    key = (au, av) if au < av else (av, au)
                    assert comp_of[(u, v)] == comp_of[key]


def pair_graph_by_union_find(p):
    """Reference: the union-find pair graph that pair_graph replaced, kept
    as it was written."""
    p.require_permutations()
    total = p.state_count
    # Triangular indexing of pairs (u, v) with u < v.
    row_base = [0] * total
    acc = 0
    for u in range(total):
        row_base[u] = acc - u - 1
        acc += total - u - 1
    nverts = total * (total - 1) // 2

    parent = list(range(nverts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for act in p.actions.values():
        for u in range(total):
            au = act[u]
            for v in range(u + 1, total):
                av = act[v]
                if au < av:
                    img = row_base[au] + av
                else:
                    img = row_base[av] + au
                ra, rb = find(row_base[u] + v), find(img)
                if ra != rb:
                    parent[rb] = ra

    groups = {}
    vertices = []
    for u in range(total):
        for v in range(u + 1, total):
            vert = (u, v)
            vertices.append(vert)
            groups.setdefault(find(row_base[u] + v), []).append(vert)
    components = sorted(groups.values(), key=lambda comp: comp[0])
    return PairGraph(
        p.left_count,
        p.right_count,
        tuple(vertices),
        tuple(tuple(comp) for comp in components),
    )


class TestPairGraphAgainstUnionFind:
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (3, 4)])
    def test_every_ordered_basis_pair(self, m, n):
        rights = [from_basis(b) for b in enumerate_bases(n)]
        for b1 in enumerate_bases(m):
            left = from_basis(b1)
            for right in rights:
                p = direct_product(left, right)
                assert pair_graph(p) == pair_graph_by_union_find(p), (b1, right)

    @pytest.mark.parametrize("n", [5, 6])
    def test_seeded_pairs_with_conjugates(self, n):
        rng = random.Random(n)
        connected = set()
        for i in range(60):
            b1 = _random_basis(rng, n)
            if i % 2:
                b2 = b1.conjugated(Perm(rng.sample(range(n), n)))
            else:
                b2 = _random_basis(rng, n)
            p = direct_product(from_basis(b1), from_basis(b2))
            assert pair_graph(p) == pair_graph_by_union_find(p), (b1, b2)
            connected.add(is_connected(p))
        assert connected == {True, False}

    def test_non_bijective_letter_raises(self):
        a = Semiautomaton(3, ("a", "b"), {"a": (1, 2, 0), "b": (0, 0, 2)})
        b = Semiautomaton(2, ("a", "b"), {"a": (1, 0), "b": (0, 1)})
        with pytest.raises(NotAPermutationError):
            pair_graph(direct_product(a, b))


class TestDistinguishingPairs:
    def test_empty_finals_never_distinguish(self):
        g = pair_graph(product_23())
        for comp in g.components:
            assert not has_distinguishing_pair(comp, frozenset())

    def test_mask_and_iterable_agree(self):
        g = pair_graph(product_23())
        finals = {0, 3, 4}
        mask = sum(1 << q for q in finals)
        for comp in g.components:
            assert (has_distinguishing_pair(comp, finals)
                    == has_distinguishing_pair(comp, mask))

    def test_known_instance(self):
        p = product_23()
        finals = flat_final_set(BoolFn.by_name("xor"), {0}, 2, {0, 1}, 3)
        assert predict_minimal(p, finals)
        assert not predict_minimal(p, frozenset())


class TestPredictions:
    def test_prediction_matches_oracle_small(self):
        # prediction route never runs the minimizer; compare against it
        rng = random.Random(23)
        ops = list(proper_functions())
        for _ in range(60):
            m = rng.randrange(2, 5)
            n = rng.randrange(2, 5)
            b1 = _random_basis(rng, m)
            b2 = _random_basis(rng, n)
            p = direct_product(from_basis(b1), from_basis(b2))
            fmask = rng.randrange(1, (1 << m) - 1)
            gmask = rng.randrange(1, (1 << n) - 1)
            op = rng.choice(ops)
            F = {i for i in range(m) if fmask >> i & 1}
            G = {j for j in range(n) if gmask >> j & 1}
            finals = flat_final_set(op, F, m, G, n)
            dl = DFA(m, ("a", "b"), from_basis(b1).actions, 0, F)
            dr = DFA(n, ("a", "b"), from_basis(b2).actions, 0, G)
            oracle = minimize(product_dfa(dl, dr, op))[1]
            assert predict_minimal(p, finals) == (oracle == m * n)

    def test_predict_connected_vs_reachability(self):
        for m, n in ((2, 2), (2, 3), (3, 3)):
            for b1 in enumerate_bases(m):
                for b2 in enumerate_bases(n):
                    p = direct_product(from_basis(b1), from_basis(b2))
                    assert predict_connected(b1, b2) == is_connected(p)

    def test_different_degrees_always_connected(self):
        assert predict_connected(B2, B3)


class TestFlatFinalSet:
    # Flat index i*n+j stands for the product state (i, j).

    def test_and(self):
        got = flat_final_set(BoolFn.by_name("and"), {0}, 2, {0, 1}, 3)
        assert got == frozenset({0 * 3 + 0, 0 * 3 + 1})

    def test_xor(self):
        got = flat_final_set(BoolFn.by_name("xor"), {0}, 2, {0, 1}, 3)
        assert got == frozenset({0 * 3 + 2, 1 * 3 + 0, 1 * 3 + 1})

    def test_nor_includes_double_rejects(self):
        got = flat_final_set(BoolFn.by_name("nor"), {0}, 2, {0}, 2)
        assert got == frozenset({1 * 2 + 1})

    def test_range_validation(self):
        with pytest.raises(ValueError):
            flat_final_set(BoolFn.by_name("and"), {2}, 2, {0}, 2)
        with pytest.raises(ValueError):
            flat_final_set(BoolFn.by_name("and"), {0}, 2, {-1}, 2)

    @given(
        st.integers(0, 15),
        st.sets(st.integers(0, 3)),
        st.sets(st.integers(0, 4)),
    )
    def test_membership_definition(self, table, f_set, g_set):
        f = BoolFn.by_table(table)
        got = flat_final_set(f, f_set, 4, g_set, 5)
        mask = flat_final_mask(f, sum(1 << i for i in f_set), 4,
                               sum(1 << j for j in g_set), 5)
        for i in range(4):
            for j in range(5):
                expect = bool(f(i in f_set, j in g_set))
                assert (i * 5 + j in got) == expect
                assert bool(mask >> (i * 5 + j) & 1) == expect
        assert mask >> 20 == 0


class TestStabilizerImage:
    def test_conjugate_pair_gives_point_stabilizer(self):
        b1 = Basis.parse("(0,1,2);(0,1)", 3)
        b2 = Basis.parse("(0,1,2);(1,2)", 3)
        si = stabilizer_image(direct_product(from_basis(b1), from_basis(b2)))
        assert si.kind == "point_stabilizer"
        assert si.fixed_point == 1
        assert si.order == 2

    def test_non_conjugate_pair_gives_symmetric(self):
        b1 = Basis.parse("(0,1,2);(0,1)", 3)
        b3 = Basis.parse("(0,1);(0,1,2)", 3)
        si = stabilizer_image(direct_product(from_basis(b1), from_basis(b3)))
        assert si.kind == "symmetric"
        assert si.fixed_point is None
        assert si.order == 6

    def test_identical_degree_two(self):
        b = Basis.parse("(0,1);(0,1)", 2)
        si = stabilizer_image(direct_product(from_basis(b), from_basis(b)))
        assert si.kind == "point_stabilizer"
        assert si.fixed_point == 0
        assert si.order == 1

    def test_mixed_degrees_sign_locked(self):
        # left group S_2, right S_3; generators pair even with even and
        # odd with odd, so the left-0 stabilizer sees only even right parts
        si = stabilizer_image(product_23())
        assert si.kind == "alternating"
        assert si.order == 3

    def test_kind_always_classified_small(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randrange(2, 5)
            b1 = _random_basis(rng, n)
            b2 = _random_basis(rng, n)
            si = stabilizer_image(direct_product(from_basis(b1), from_basis(b2)))
            assert si.kind in ("symmetric", "alternating", "point_stabilizer")


class TestFormatting:
    def test_header_and_tail(self):
        p = product_23()
        finals = flat_final_set(BoolFn.by_name("xor"), {0}, 2, {0, 1}, 3)
        text = format_pair_graph(p, finals=finals)
        lines = text.splitlines()
        assert lines[0] == ("pairgraph m=2 n=3 vertices=15 components=4 "
                            "connected=true")
        assert lines[-1] == "predicted minimal: true"
        assert sum(1 for ln in lines if ln.startswith("component ")) == 4

    def test_stars_mark_distinguishing_pairs(self):
        p = product_23()
        g = pair_graph(p)
        finals = flat_final_set(BoolFn.by_name("xor"), {0}, 2, {0, 1}, 3)
        mask = 0
        for q in finals:
            mask |= 1 << q
        text = format_pair_graph(p, g, finals)
        starred = sum(1 for ln in text.splitlines() if ln.endswith("*"))
        want = sum(1 for c in g.components for (u, v) in c
                   if ((mask >> u) ^ (mask >> v)) & 1)
        assert want > 0
        assert starred == want

    def test_no_finals_no_verdict(self):
        text = format_pair_graph(product_23())
        assert "predicted minimal" not in text
        assert "*" not in text
