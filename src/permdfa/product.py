"""Direct products of automata, their pair graphs, and structural predictions.

Product state (i, j) sits at flat index i * n + j where n is the right state
count; flat_final_mask is the one builder of product final sets, and
all_distinguished the one pair-graph prediction, shared by predict_minimal,
format_pair_graph and the campaigns. Everything here that walks the pair
graph requires permutation letter actions and says so loudly when they are
not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .automaton import DFA, Semiautomaton, finals_to_mask, is_connected
from .boolops import BoolFn
from .perm import Basis, bases_conjugate


class ProductAutomaton(Semiautomaton):
    """Componentwise product of two semiautomata over the same alphabet."""

    __slots__ = ("left_count", "right_count")

    def __init__(self, left: Semiautomaton, right: Semiautomaton):
        if left.alphabet != right.alphabet:
            raise ValueError(
                f"alphabets differ: {left.alphabet!r} vs {right.alphabet!r}"
            )
        m, n = left.state_count, right.state_count
        actions = {}
        for letter in left.alphabet:
            la, ra = left.actions[letter], right.actions[letter]
            act = [0] * (m * n)
            k = 0
            for i in range(m):
                base = la[i] * n
                for j in range(n):
                    act[k] = base + ra[j]
                    k += 1
            actions[letter] = act
        super().__init__(m * n, left.alphabet, actions, left.initial * n + right.initial)
        self.left_count = m
        self.right_count = n

    def flat(self, i: int, j: int) -> int:
        return i * self.right_count + j

    def unflat(self, k: int) -> tuple[int, int]:
        return divmod(k, self.right_count)


def direct_product(left: Semiautomaton, right: Semiautomaton) -> ProductAutomaton:
    return ProductAutomaton(left, right)


def flat_final_mask(f: BoolFn, fmask: int, left_count: int, gmask: int, right_count: int) -> int:
    """Product final states as a bit mask over flat indices: bit i*n+j is
    f(bit i of fmask, bit j of gmask)."""
    table = f.table
    n = right_count
    flat = 0
    for i in range(left_count):
        x = fmask >> i & 1
        for j in range(n):
            if table >> (3 - 2 * x - (gmask >> j & 1)) & 1:
                flat |= 1 << (i * n + j)
    return flat


def flat_final_set(
    f: BoolFn,
    left_finals: Iterable[int],
    left_count: int,
    right_finals: Iterable[int],
    right_count: int,
) -> frozenset[int]:
    """Product final states as flat indices: f(i in F, j in F') selects i*n+j."""
    fmask = finals_to_mask(left_finals)
    gmask = finals_to_mask(right_finals)
    if fmask >> left_count or gmask >> right_count:
        raise ValueError("final state out of range")
    flat = flat_final_mask(f, fmask, left_count, gmask, right_count)
    return frozenset(q for q in range(left_count * right_count) if flat >> q & 1)


def product_dfa(left: DFA, right: DFA, f: BoolFn) -> DFA:
    """The DFA accepting words w with f(w in L, w in L')."""
    p = direct_product(left, right)
    finals = flat_final_set(f, left.finals, p.left_count, right.finals, p.right_count)
    return DFA(p.state_count, p.alphabet, dict(p.actions), p.initial, finals)


@dataclass(frozen=True)
class ComponentLabel:
    """kind is C1 (coordinates both differ), C2 (left equal), C3 (right equal)
    or OTHER; exact marks a component that is the whole class of its kind."""

    kind: str
    exact: bool


@dataclass(frozen=True)
class PairGraph:
    """All unordered pairs of distinct product states, grouped into the
    components induced by the letter actions."""

    left_count: int
    right_count: int
    vertices: tuple[tuple[int, int], ...]
    components: tuple[tuple[tuple[int, int], ...], ...]


@functools.lru_cache(maxsize=None)
def _pair_table(total: int):
    """For total states: the pair (u, v) at key u*total+v, a label template
    that marks every key with u >= v as taken, and all pairs in order."""
    pairs: list = [None] * (total * total)
    taken = bytearray(b"\x01") * (total * total)
    for u in range(total):
        for v in range(u + 1, total):
            pairs[u * total + v] = (u, v)
            taken[u * total + v] = 0
    return tuple(pairs), bytes(taken), tuple(q for q in pairs if q is not None)


def pair_graph(p: ProductAutomaton) -> PairGraph:
    """Components of the pair graph under the per-letter induced maps.

    Letters must act bijectively; then every induced map {u, v} -> {a(u), a(v)}
    permutes the pairs, and the orbits of the maps are exactly the
    components. Each is found by a breadth-first search from its smallest
    unlabelled pair, scanning in lexicographic order, so components come
    out ordered by their smallest pair and each pair is labelled once.
    """
    p.require_permutations()
    total = p.state_count
    acts = list(p.actions.values())
    pairs, taken, vertices = _pair_table(total)
    label = bytearray(taken)
    components = []
    key = label.find(0)
    while key >= 0:
        label[key] = 1
        queue = [key]
        for k in queue:
            x, y = pairs[k]
            for act in acts:
                a = act[x]
                b = act[y]
                img = a * total + b if a < b else b * total + a
                if not label[img]:
                    label[img] = 1
                    queue.append(img)
        queue.sort()
        components.append(tuple(map(pairs.__getitem__, queue)))
        key = label.find(0, key + 1)
    return PairGraph(p.left_count, p.right_count, vertices, tuple(components))


def classify_component(
    component: Sequence[tuple[int, int]], left_count: int, right_count: int
) -> ComponentLabel:
    """Label a component by the coordinate pattern of its pairs."""
    n = right_count
    kinds = set()
    for (u, v) in component:
        i, j = divmod(u, n)
        k, l = divmod(v, n)
        if i == k:
            kinds.add("C2")
        elif j == l:
            kinds.add("C3")
        else:
            kinds.add("C1")
    if len(kinds) != 1:
        return ComponentLabel("OTHER", False)
    kind = kinds.pop()
    m = left_count
    full = {
        "C1": m * n * (m - 1) * (n - 1) // 2,
        "C2": m * n * (n - 1) // 2,
        "C3": n * m * (m - 1) // 2,
    }[kind]
    return ComponentLabel(kind, len(component) == full)


def has_distinguishing_pair(component: Sequence[tuple[int, int]], finals: Iterable[int] | int) -> bool:
    """Whether some pair of the component has exactly one final member."""
    mask = finals_to_mask(finals)
    for (u, v) in component:
        if ((mask >> u) ^ (mask >> v)) & 1:
            return True
    return False


def all_distinguished(components: Iterable[Sequence[tuple[int, int]]], mask: int) -> bool:
    """The pair-graph half of the prediction: every component has a
    distinguishing pair under the finals mask."""
    for comp in components:
        if not has_distinguishing_pair(comp, mask):
            return False
    return True


def predict_minimal(p: ProductAutomaton, finals: Iterable[int] | int) -> bool:
    """Structural prediction: connected, and every pair-graph component has a
    distinguishing pair.

    This route never runs the minimizer; campaigns compare it against the
    minimization oracle on every instance.
    """
    mask = finals_to_mask(finals)
    return is_connected(p) and all_distinguished(pair_graph(p).components, mask)


def predict_connected(left_basis: Basis, right_basis: Basis) -> bool:
    """Structural prediction of product connectivity: degrees differ, or no
    single permutation conjugates one basis onto the other."""
    if left_basis.degree != right_basis.degree:
        return True
    return bases_conjugate(left_basis, right_basis) is None


def format_pair_graph(
    p: ProductAutomaton,
    graph: Optional[PairGraph] = None,
    finals: Optional[Iterable[int] | int] = None,
) -> str:
    """Deterministic listing: components by smallest vertex, vertices in
    lexicographic order, a '*' on distinguishing pairs when finals are given."""
    if graph is None:
        graph = pair_graph(p)
    n = p.right_count
    mask = None if finals is None else finals_to_mask(finals)
    connected = is_connected(p)
    lines = [
        f"pairgraph m={p.left_count} n={p.right_count} "
        f"vertices={len(graph.vertices)} components={len(graph.components)} "
        f"connected={'true' if connected else 'false'}"
    ]
    for idx, comp in enumerate(graph.components, start=1):
        label = classify_component(comp, p.left_count, p.right_count)
        lines.append(
            f"component {idx} kind={label.kind} "
            f"exact={'true' if label.exact else 'false'} size={len(comp)}"
        )
        for (u, v) in comp:
            star = ""
            if mask is not None and ((mask >> u) ^ (mask >> v)) & 1:
                star = " *"
            i, j = divmod(u, n)
            k, l = divmod(v, n)
            lines.append(f"  {{({i},{j}),({k},{l})}}{star}")
    if mask is not None:
        value = connected and all_distinguished(graph.components, mask)
        lines.append(f"predicted minimal: {'true' if value else 'false'}")
    return "\n".join(lines) + "\n"
