"""Direct products of automata, their pair graphs, and structural predictions.

Product state (i, j) sits at flat index i * n + j where n is the right state
count; flat_final_mask is the one builder of product final sets,
product_action of product letter actions, and pair_count the one pair-graph
count, shared by predict_minimal, format_pair_graph and the campaigns. It
searches each {start, y}'s component lazily; pair_graph builds every
component, for listings only. Both key the pair {u, v}, u < v, of N product
states as u * N + v and decode a key by divmod, so nothing is cached per
product size. pair_graph and predict_minimal reject letters that do not act
bijectively. _bool_text, _states_text and _pair_text are the one text form
of a boolean, a state set and a product-state pair in every report.
"""

from collections import namedtuple
from typing import Iterable, Optional, Sequence

from .automaton import (DFA, Semiautomaton, finals_to_mask, is_connected,
                        mask_states, reachable_states)
from .boolops import BoolFn
from .perm import Basis, bases_conjugate


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _states_text(states: Iterable[int]) -> str:
    return ",".join(map(str, states))


def _pair_text(u: int, v: int, right_count: int) -> str:
    """Flat states u and v as the pair {(i,j),(k,l)}."""
    i, j = divmod(u, right_count)
    k, l = divmod(v, right_count)
    return f"{{({i},{j}),({k},{l})}}"


class ProductAutomaton(Semiautomaton):
    """Componentwise product of two semiautomata over the same letters, in
    the left factor's order.

    Both factors were checked when they were built, so the product's letter
    actions, which map (i, j) to (left(i), right(j)), are not checked again.
    """

    __slots__ = ("left_count", "right_count")

    def __init__(self, left: Semiautomaton, right: Semiautomaton):
        if set(left.alphabet) != set(right.alphabet):
            raise ValueError(
                f"alphabets differ: {left.alphabet!r} vs {right.alphabet!r}"
            )
        m, n = left.state_count, right.state_count
        self.state_count = m * n
        self.alphabet = left.alphabet
        self.actions = {
            letter: product_action(left.actions[letter], right.actions[letter])
            for letter in left.alphabet}
        self.initial = left.initial * n + right.initial
        self.left_count = m
        self.right_count = n

    def flat(self, i: int, j: int) -> int:
        return i * self.right_count + j


def product_action(left: Sequence[int], right: Sequence[int]) -> tuple[int, ...]:
    """The action (i, j) -> (left(i), right(j)) on flat states i * n + j."""
    n = len(right)
    return tuple([x * n + y for x in left for y in right])


def direct_product(left: Semiautomaton, right: Semiautomaton) -> ProductAutomaton:
    return ProductAutomaton(left, right)


def flat_final_mask(f: BoolFn, fmask: int, left_count: int, gmask: int, right_count: int) -> int:
    """Product final states as a bit mask over flat indices: bit i*n+j is
    f(bit i of fmask, bit j of gmask).  Row i is one of two masks over the
    right states, f(x, .) for x its left bit, shifted into place."""
    table = f.table
    n = right_count
    full = (1 << n) - 1
    g = gmask & full
    rows = [(g if table >> (2 - 2 * x) & 1 else 0)
            | (full ^ g if table >> (3 - 2 * x) & 1 else 0) for x in (0, 1)]
    flat = 0
    for i in range(left_count):
        flat |= rows[fmask >> i & 1] << (i * n)
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
    return frozenset(mask_states(flat, left_count * right_count))


def product_dfa(left: DFA, right: DFA, f: BoolFn) -> DFA:
    """The DFA accepting words w with f(w in L, w in L')."""
    p = direct_product(left, right)
    finals = flat_final_set(f, left.finals, p.left_count, right.finals, p.right_count)
    return DFA(p.state_count, p.alphabet, dict(p.actions), p.initial, finals)


class ComponentLabel(namedtuple("ComponentLabel", ("kind", "exact"))):
    """kind is C1 (coordinates both differ), C2 (left equal), C3 (right equal)
    or OTHER; exact marks a component that is the whole class of its kind."""

    __slots__ = ()


class PairGraph(namedtuple("PairGraph", (
        "left_count", "right_count", "vertices", "components"))):
    """All unordered pairs (u, v), u < v, of distinct product states, in
    lexicographic order, and the same pair tuples grouped into the
    components induced by the letter actions."""

    __slots__ = ()


def pair_graph(p: ProductAutomaton) -> PairGraph:
    """Components of the pair graph under the per-letter induced maps.

    Letters must act bijectively; then every induced map {u, v} -> {a(u), a(v)}
    permutes the pairs, and the orbits of the maps are exactly the
    components. Each is found by a breadth-first search from its smallest
    unlabelled pair, scanning in lexicographic order, so components come
    out ordered by their smallest pair and each pair is labelled once.
    The label array, whose keys u * N + v with u >= v start taken, and the
    vertex list are built afresh on each call; the pair keyed u * N + v is
    vertices[u * N + v - (u + 1)(u + 2) / 2], and each component holds
    those same tuples.
    """
    p.require_permutations()
    total = p.state_count
    acts = list(p.actions.values())
    vertices = tuple([(u, v) for u in range(total) for v in range(u + 1, total)])
    shift = [(u + 1) * (u + 2) // 2 for u in range(total)]
    label = bytearray(b"\x01") * (total * total)
    for u in range(total):
        label[u * total + u + 1:(u + 1) * total] = bytes(total - u - 1)
    components = []
    key = label.find(0)
    while key >= 0:
        label[key] = 1
        queue = [key]
        for k in queue:
            x, y = divmod(k, total)
            for act in acts:
                a = act[x]
                b = act[y]
                img = a * total + b if a < b else b * total + a
                if not label[img]:
                    label[img] = 1
                    queue.append(img)
        queue.sort()
        components.append(tuple([vertices[k - shift[k // total]]
                                 for k in queue]))
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


def pair_count(actions: Sequence[Sequence[int]], reachable: Sequence[int],
               start: int, mask: int, state_count: int) -> int:
    """The minimal state count of a product of permutation automata from
    start, whose reachable states are R, under the finals mask.

    The letters permute R transitively, so its Nerode classes are blocks of
    equal size: the count is |R| / (1 + the y in R equivalent to start), the
    y whose pair {start, y} has no distinguishing pair in its component.  A
    breadth-first search from each undecided {start, y} stops at the first
    distinguishing or proved pair, proving all it visited; one that runs out
    marks its component equivalent.  mark[u*N+v]: 0 unseen, 1 in this
    search, 2 proved, 3 equivalent."""
    total = state_count
    final = [mask >> q & 1 for q in range(total)]
    mark = bytearray(total * total)
    same = 0
    for y in reachable:
        key = start * total + y if start < y else y * total + start
        if final[y] != final[start] or y == start or mark[key]:
            same += mark[key] == 3
            continue
        mark[key] = 1
        queue = [key]
        for key in queue:
            u, v = divmod(key, total)
            for act in actions:
                a, b = act[u], act[v]
                img = a * total + b if a < b else b * total + a
                if final[a] != final[b] or mark[img] == 2:
                    break
                if not mark[img]:
                    mark[img] = 1
                    queue.append(img)
            else:
                continue
            proof = 2  # reached a distinguishing or proved pair
            break
        else:
            proof = 3
            same += 1
        for key in queue:
            mark[key] = proof
    return len(reachable) // (1 + same)


def predict_minimal(p: ProductAutomaton, finals: Iterable[int] | int) -> bool:
    """Structural prediction: letters act bijectively (else it raises), and
    pair_count needs every state, so the product is connected and every
    pair-graph component has a distinguishing pair; no minimizer runs."""
    p.require_permutations()
    return pair_count([p.actions[letter] for letter in p.alphabet],
                      reachable_states(p), p.initial, finals_to_mask(finals),
                      p.state_count) == p.state_count


def predict_connected(left_basis: Basis, right_basis: Basis) -> bool:
    """Structural prediction of product connectivity: degrees differ, or no
    single permutation conjugates one basis onto the other."""
    if left_basis.degree != right_basis.degree:
        return True
    return bases_conjugate(left_basis, right_basis) is None


def format_pair_graph(
    p: ProductAutomaton, finals: Optional[Iterable[int] | int] = None
) -> str:
    """Deterministic listing: components by smallest vertex, vertices in
    lexicographic order, a '*' on distinguishing pairs when finals are given."""
    graph = pair_graph(p)
    mask = None if finals is None else finals_to_mask(finals)
    connected = is_connected(p)
    lines = [
        f"pairgraph m={p.left_count} n={p.right_count} "
        f"vertices={len(graph.vertices)} components={len(graph.components)} "
        f"connected={_bool_text(connected)}"
    ]
    for idx, comp in enumerate(graph.components, start=1):
        label = classify_component(comp, p.left_count, p.right_count)
        lines.append(
            f"component {idx} kind={label.kind} "
            f"exact={_bool_text(label.exact)} size={len(comp)}"
        )
        for (u, v) in comp:
            star = ""
            if mask is not None and ((mask >> u) ^ (mask >> v)) & 1:
                star = " *"
            lines.append(f"  {_pair_text(u, v, p.right_count)}{star}")
    if mask is not None:
        lines.append(f"predicted minimal: {_bool_text(predict_minimal(p, mask))}")
    return "\n".join(lines) + "\n"
