"""Products, pair graphs, structural predictions."""

import gc
import itertools
import random
import tracemalloc

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
)
from permdfa import harness
from permdfa.automaton import moore_complexity
from permdfa.harness import enumerate_bases
from permdfa.perm import basis_orbits
from permdfa.product import PairGraph, flat_final_mask, pair_count

B2 = Basis.parse("id;(0,1)", 2)
B3 = Basis.parse("(0,1,2);(0,1)", 3)


def product_23():
    return direct_product(from_basis(B2), from_basis(B3))


def _non_bijective_product():
    # letter a acts as a 6-cycle, so the product is connected
    a = Semiautomaton(3, ("a", "b"), {"a": (1, 2, 0), "b": (0, 0, 2)})
    b = Semiautomaton(2, ("a", "b"), {"a": (1, 0), "b": (0, 1)})
    return direct_product(a, b)


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
        assert divmod(5, p.right_count) == (1, 2)
        assert p.initial == 0

    def test_componentwise_action(self):
        p = product_23()
        # letter a: left id, right (0,1,2)
        assert p.actions["a"][p.flat(0, 0)] == p.flat(0, 1)
        assert p.actions["b"][p.flat(1, 2)] == p.flat(0, 2)

    def test_actions_equal_checked_construction(self):
        # the product's actions are built unchecked from checked factors
        p = product_23()
        left, right = from_basis(B2).actions, from_basis(B3).actions
        expected = {letter: tuple(p.flat(left[letter][i], right[letter][j])
                                  for i in range(2) for j in range(3))
                    for letter in ("a", "b")}
        assert p.actions == expected
        assert Semiautomaton(6, p.alphabet, p.actions).actions == expected

    def test_alphabet_mismatch(self):
        left = from_basis(B2)
        right = Semiautomaton(3, ("x", "y"),
                              {"x": B3.s.image, "y": B3.t.image})
        with pytest.raises(ValueError, match="alphabets differ"):
            direct_product(left, right)

    def test_alphabet_order_is_the_left_factors(self):
        # actions are keyed by letter, so the right factor's order of the
        # same letters carries no meaning
        right = Semiautomaton(3, ("b", "a"), from_basis(B3).actions)
        p = direct_product(from_basis(B2), right)
        assert p.alphabet == ("a", "b")
        assert p.actions == product_23().actions

    def test_flat_final_set(self):
        got = flat_final_set(BoolFn.by_name("and"), {0}, 2, {0, 1}, 3)
        assert got == frozenset({0, 1})
        got = flat_final_set(BoolFn.by_name("xor"), {0}, 2, {0, 1}, 3)
        assert got == frozenset({2, 3, 4})

    @pytest.mark.parametrize("table", range(16))
    def test_flat_final_mask_bit_by_bit(self, table):
        # bit i*n+j is f(i in F, j in F'), for every final pair at m, n <= 4
        f = BoolFn(table)
        for m, n in itertools.product(range(1, 5), repeat=2):
            for fmask in range(1 << m):
                for gmask in range(1 << n):
                    want = sum(1 << (i * n + j) for i in range(m) for j in range(n)
                               if f(bool(fmask >> i & 1), bool(gmask >> j & 1)))
                    assert flat_final_mask(f, fmask, m, gmask, n) == want

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

    def test_components_hold_the_vertex_tuples(self):
        # a listing keeps one tuple per pair, whatever the components
        rng = random.Random(5)
        for m, n in ((2, 3), (3, 3), (4, 5)):
            p = direct_product(from_basis(_random_basis(rng, m)),
                               from_basis(_random_basis(rng, n)))
            g = pair_graph(p)
            at = {pair: i for i, pair in enumerate(g.vertices)}
            assert len(at) == len(g.vertices) == sum(map(len, g.components))
            for comp in g.components:
                for pair in comp:
                    assert pair is g.vertices[at[pair]]


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
        with pytest.raises(NotAPermutationError):
            pair_graph(_non_bijective_product())

    @pytest.mark.parametrize("left,right,count", [
        # identity letters: every pair is its own component
        ({"a": (0, 1, 2), "b": (0, 1, 2)},
         {"a": (0, 1, 2, 3), "b": (0, 1, 2, 3)}, 66),
        # one shared 4-cycle: components of two or four pairs
        ({"a": (1, 2, 3, 0), "b": (1, 2, 3, 0)},
         {"a": (1, 2, 3, 0), "b": (1, 2, 3, 0)}, 32),
        # a 3-cycle on the left, a swap on the right, each with the identity
        ({"a": (1, 2, 0), "b": (0, 1, 2)},
         {"a": (0, 1, 2, 3), "b": (1, 0, 2, 3)}, 14),
    ], ids=["identity", "shared-cycle", "cycle-and-swap"])
    def test_letters_that_do_not_generate(self, left, right, count):
        p = direct_product(
            Semiautomaton(len(left["a"]), ("a", "b"), left),
            Semiautomaton(len(right["a"]), ("a", "b"), right))
        g = pair_graph(p)
        assert g == pair_graph_by_union_find(p)
        assert len(g.components) == count


class TestNothingKeptPerSize:
    def test_no_memory_outlives_a_call(self):
        # the prop-1 witnesses at degree 20: a 400-state product
        cycle = Perm(tuple(range(1, 20)) + (0,))
        swap = Perm((1, 0) + tuple(range(2, 20)))
        p = direct_product(from_basis(Basis(cycle, swap)),
                           from_basis(Basis(swap, cycle)))
        mask = flat_final_mask(BoolFn.by_name("and"), 1 << 19, 20, 1 << 19, 20)
        acts = list(p.actions.values())
        tracemalloc.start()
        try:
            pair_graph(p)
            pair_count(acts, range(p.state_count), 0, mask, p.state_count)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20


def component_scan(components, mask):
    """Reference: the scan of pair_graph(p).components that pair_count's
    search replaces."""
    return all(has_distinguishing_pair(c, mask) for c in components)


class TestSearchAgainstComponentScan:
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (3, 4)])
    def test_every_connected_basis_pair(self, m, n):
        # Every flat mask of a (F, F', op) choice, one of each complementary
        # pair: neither answer changes under complement.  Relabelling both
        # bases renames the components and the set of masks alike, so one
        # ordered pair per orbit and class of start states (r^-1(0),
        # s^-1(0)) asks every question the sweep asks, with every state
        # of the representatives as the search's state 0.
        full = (1 << (m * n)) - 1
        masks = {min(flat, flat ^ full) for flat in (
            flat_final_mask(op, fmask, m, gmask, n)
            for fmask in range(1, (1 << m) - 1)
            for gmask in range(1, (1 << n) - 1)
            for op in proper_functions())}
        rights = [(from_basis(b), rep, r.image.index(0))
                  for b, rep, r in basis_orbits(n)]
        seen = set()
        answers = set()
        for b1, rep1, r1 in basis_orbits(m):
            left = from_basis(b1)
            for right, rep2, j0 in rights:
                key = (rep1, r1.image.index(0), rep2, j0)
                if key in seen:
                    continue
                seen.add(key)
                p = direct_product(left, right)
                if not is_connected(p):
                    continue
                actions = list(p.actions.values())
                components = pair_graph(p).components
                for mask in masks:
                    want = component_scan(components, mask)
                    assert (pair_count(actions, range(m * n), 0, mask, m * n)
                            == m * n) == want, (b1, right.actions, mask)
                    answers.add(want)
        # no connected 2x3 or 3x3 product falls short of m*n
        assert answers == ({True} if (m, n) in ((2, 3), (3, 3))
                           else {True, False})

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_seeded_pairs_with_raw_masks(self, n):
        # Random raw masks, and unions of rows or columns (the flat masks of
        # an operation that ignores one argument), which leave the rows' or
        # the columns' component undistinguished.
        rng = random.Random(n)
        projections = [BoolFn.by_table(0b0011), BoolFn.by_table(0b0101)]
        answers = set()
        tried = 0
        while tried < 40:
            p = direct_product(from_basis(_random_basis(rng, n)),
                               from_basis(_random_basis(rng, n)))
            if not is_connected(p):
                continue
            tried += 1
            actions = list(p.actions.values())
            components = pair_graph(p).components
            masks = [rng.getrandbits(n * n) for _ in range(20)]
            masks += [flat_final_mask(f, rng.randrange(1, (1 << n) - 1), n,
                                      rng.randrange(1, (1 << n) - 1), n)
                      for f in projections]
            for mask in masks:
                want = component_scan(components, mask)
                assert (pair_count(actions, range(n * n), 0, mask, n * n)
                        == n * n) == want
                answers.add(want)
        assert answers == {True, False}

    def test_predict_minimal_rejects_non_bijective_letter(self):
        p = _non_bijective_product()
        assert is_connected(p)
        with pytest.raises(NotAPermutationError):
            predict_minimal(p, {0})

    def test_format_pair_graph_rejects_non_bijective_letter(self):
        with pytest.raises(NotAPermutationError):
            format_pair_graph(_non_bijective_product(), {0})


def _representative_contexts(m, n):
    """The pair contexts an exhaustive m x n sweep judges: one per orbit
    pair of bases and class of start states, less those whose start another
    context of the same orbit pair reaches."""
    tables = [basis_orbits(k) for k in (m, n)]
    starts = [sorted({(rep, r.image.index(0)) for _, rep, r in table})
              for table in tables]
    covered = set()
    for rep1, i0 in starts[0]:
        for rep2, j0 in starts[1]:
            if (rep1, rep2, i0 * n + j0) not in covered:
                ctx = harness._PairContext(tables[0][rep1][0],
                                           tables[1][rep2][0], i0 * n + j0)
                covered.update((rep1, rep2, q) for q in ctx.reachable)
                yield ctx


class TestPairCount:
    """The pair route's count equals Moore's on the reachable part."""

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4),
                                     (4, 4)])
    def test_every_combo_of_every_representative_context(self, m, n):
        # every flat mask of a (F, F', op) choice, one of each complementary
        # pair, as neither count changes under complement
        full = (1 << (m * n)) - 1
        masks = {min(flat, flat ^ full) for flat in (
            flat_final_mask(op, fmask, m, gmask, n)
            for fmask in range(1, (1 << m) - 1)
            for gmask in range(1, (1 << n) - 1)
            for op in proper_functions())}
        shapes = set()
        for ctx in _representative_contexts(m, n):
            shapes.add(ctx.conjugate_bound)
            for mask in masks:
                assert pair_count(ctx.actions, ctx.reachable, ctx.start, mask,
                                  ctx.mn) == moore_complexity(
                    ctx.actions, ctx.reachable, mask, ctx.mn), (
                    ctx.head, ctx.start, mask)
        # conjugate contexts start on the conjugator's graph (n states) and
        # off it (n(n-1) states)
        assert shapes == ({-1} if m != n else {-1, n, n * (n - 1)})

    @pytest.mark.parametrize("n", [5, 8, 12, 20])
    def test_seeded_rows_with_conjugate_bases_and_random_starts(self, n):
        # every other row has a conjugate right basis; each row takes a
        # (F, F', op) mask and a raw mask over all states
        rng = random.Random(n)
        ops = proper_functions()
        counts = set()
        for i in range(100):
            b1 = harness._random_basis(rng, n)
            b2 = (b1.conjugated(harness._random_perm(rng, n)) if i % 2
                  else harness._random_basis(rng, n))
            ctx = harness._PairContext(b1, b2, rng.randrange(n * n))
            for mask in (flat_final_mask(rng.choice(ops),
                                         rng.randrange(1, (1 << n) - 1), n,
                                         rng.randrange(1, (1 << n) - 1), n),
                         rng.getrandbits(n * n)):
                count = pair_count(ctx.actions, ctx.reachable, ctx.start,
                                   mask, n * n)
                assert count == moore_complexity(ctx.actions, ctx.reachable,
                                                 mask, n * n), (ctx.head, mask)
                counts.add(count)
        # minimal rows and both conjugate shapes occur
        assert {n, n * (n - 1), n * n} <= counts


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
        text = format_pair_graph(p, finals)
        starred = sum(1 for ln in text.splitlines() if ln.endswith("*"))
        want = sum(1 for c in g.components for (u, v) in c
                   if ((mask >> u) ^ (mask >> v)) & 1)
        assert want > 0
        assert starred == want

    def test_no_finals_no_verdict(self):
        text = format_pair_graph(product_23())
        assert "predicted minimal" not in text
        assert "*" not in text
