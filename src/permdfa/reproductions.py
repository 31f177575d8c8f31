"""Reproduction reports.

Each known id rebuilds one worked scenario from first principles and prints
the quantities it is about.  The reports are frozen under tests/golden/.
"""

from typing import Optional

from .automaton import (
    Semiautomaton,
    from_basis,
    is_connected,
    moore_complexity,
    reachable_states,
    transition_semigroup,
)
from .boolops import CANONICAL_TABLES, BoolFn, proper_functions
from .perm import Basis, bases_conjugate, format_cycles
from .product import (
    classify_component,
    direct_product,
    flat_final_mask,
    format_pair_graph,
    has_distinguishing_pair,
    pair_graph,
)


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


REPRODUCE_IDS = (
    "example-1",
    "example-2.2",
    "example-3.2",
    "example-3.3",
    "example-3.4",
    "prop-1",
)


def _complexity_of(b1: Basis, b2: Basis, fmask: int, gmask: int,
                   op: BoolFn) -> int:
    prod = direct_product(from_basis(b1), from_basis(b2))
    flat = flat_final_mask(op, fmask, b1.degree, gmask, b2.degree)
    actions = [prod.actions[letter] for letter in prod.alphabet]
    return moore_complexity(actions, reachable_states(prod), flat,
                            prod.state_count)


def _reproduce_example_1() -> str:
    b1 = Basis.parse("(0,1,2);(0,1)", 3)
    b2 = Basis.parse("(0,1,2);(1,2)", 3)
    b3 = Basis.parse("(0,1);(0,1,2)", 3)
    r12 = bases_conjugate(b1, b2)
    r13 = bases_conjugate(b1, b3)
    lines = ["reproduce example-1"]
    lines.append(f"degree 3 bases: b1 = {b1}  b2 = {b2}  b3 = {b3}")
    lines.append("conjugator b1 -> b2: "
                 + (format_cycles(r12) if r12 is not None else "none"))
    lines.append("conjugator b1 -> b3: "
                 + (format_cycles(r13) if r13 is not None else "none"))
    orders = [len(transition_semigroup(from_basis(b)).elements)
              for b in (b1, b2, b3)]
    lines.append("transition semigroup orders: b1: {}  b2: {}  b3: {}".format(
        *orders))
    lines.append("letter a orders: b1: {}  b2: {}  b3: {}".format(
        b1.s.order(), b2.s.order(), b3.s.order()))
    for name, other in (("b2", b2), ("b3", b3)):
        connected = is_connected(direct_product(from_basis(b1), from_basis(other)))
        lines.append(f"product b1 x {name} connected: {_bool_text(connected)}")
    return "\n".join(lines) + "\n"


def _reproduce_example_2_2() -> str:
    bases = [Basis.parse(text, 2) for text in
             ("(0,1);(0,1)", "(0,1);id", "id;(0,1)")]
    names = ["b1", "b2", "b3"]
    ops = proper_functions()
    lines = ["reproduce example-2.2"]
    lines.append("degree 2 bases: "
                 + "  ".join(f"{nm} = {b}" for nm, b in zip(names, bases)))
    conj_pairs = [
        f"{names[i]},{names[j]}"
        for i in range(3) for j in range(i + 1, 3)
        if bases_conjugate(bases[i], bases[j]) is not None
    ]
    lines.append("conjugate pairs among b1,b2,b3: "
                 + (" ".join(conj_pairs) if conj_pairs else "none"))
    lines.append("products over unordered non-conjugate basis pairs"
                 " and all F, Fp:")
    xor_low = xnor_low = others_full = True
    for i in range(3):
        for j in range(i + 1, 3):
            if bases_conjugate(bases[i], bases[j]) is not None:
                continue
            for fmask in (1, 2):
                for gmask in (1, 2):
                    parts = []
                    for op in ops:
                        c = _complexity_of(bases[i], bases[j],
                                           fmask, gmask, op)
                        parts.append(f"{op.name}={c}")
                        if op.name == "xor":
                            xor_low = xor_low and c < 4
                        elif op.name == "xnor":
                            xnor_low = xnor_low and c < 4
                        else:
                            others_full = others_full and c == 4
                    f_text = ",".join(
                        str(a) for a in range(2) if fmask >> a & 1)
                    g_text = ",".join(
                        str(a) for a in range(2) if gmask >> a & 1)
                    lines.append(
                        f"{names[i]} x {names[j]} F={f_text} Fp={g_text}: "
                        + " ".join(parts))
    lines.append(f"xor below 4 in all products: {_bool_text(xor_low)}")
    lines.append(f"xnor below 4 in all products: {_bool_text(xnor_low)}")
    lines.append("other proper ops equal 4 in all products: "
                 + _bool_text(others_full))
    return "\n".join(lines) + "\n"


def _pair_graph_section(b1: Basis, b2: Basis, flat: int) -> str:
    prod = direct_product(from_basis(b1), from_basis(b2))
    graph = pair_graph(prod)
    return format_pair_graph(prod, graph, flat)


def _reproduce_example_3_2() -> str:
    b1 = Basis.parse("id;(0,1)", 2)
    b2 = Basis.parse("(0,1,2);(0,1)", 3)
    op = BoolFn.by_name("xor")
    fmask, gmask = 0b01, 0b011
    lines = ["reproduce example-3.2"]
    lines.append(f"left (2 states): {b1}")
    lines.append(f"right (3 states): {b2}")
    lines.append(f"F = 0  Fp = 0,1  op = {op.label()}")
    flat = flat_final_mask(op, fmask, 2, gmask, 3)
    lines.append(_pair_graph_section(b1, b2, flat))
    oracle = _complexity_of(b1, b2, fmask, gmask, op)
    lines.append(f"oracle complexity: {oracle}")
    return "\n".join(lines) + "\n"


def _reproduce_example_3_3() -> str:
    b1 = Basis.parse("(0,1);(0,1,2)", 3)
    b2 = Basis.parse("(0,1);(1,3,2)", 4)
    fmask, gmask = 0b100, 0b0011
    lines = ["reproduce example-3.3"]
    lines.append(f"left (3 states): {b1}")
    lines.append(f"right (4 states): {b2}")
    lines.append("F = 2  Fp = 0,1")
    for op_name in ("and", "xor", "or"):
        op = BoolFn.by_name(op_name)
        c = _complexity_of(b1, b2, fmask, gmask, op)
        lines.append(f"complexity {op.label()}: {c}")
    op = BoolFn.by_name("and")
    flat = flat_final_mask(op, fmask, 3, gmask, 4)
    prod = direct_product(from_basis(b1), from_basis(b2))
    graph = pair_graph(prod)
    n = 4
    want = (prod.flat(0, 0), prod.flat(0, 3))
    comp = next(c for c in graph.components if want in c)
    label = classify_component(comp, 3, 4)
    dist = has_distinguishing_pair(comp, flat)
    lines.append(
        "and-instance component containing {(0,0),(0,3)}:"
        f" kind={label.kind} exact={_bool_text(label.exact)}"
        f" size={len(comp)}"
        f" distinguishing={'some' if dist else 'none'}")
    for (u, v) in comp:
        i, j = divmod(u, n)
        k, l = divmod(v, n)
        lines.append(f"  {{({i},{j}),({k},{l})}}")
    return "\n".join(lines) + "\n"


def _reproduce_example_3_4() -> str:
    b1 = Basis.parse("(0,1,2);(2,3)", 4)
    b2 = Basis.parse("(1,3,2);(0,2,1,3)", 4)
    conjugate = bases_conjugate(b1, b2) is not None
    connected = is_connected(direct_product(from_basis(b1), from_basis(b2)))
    lines = ["reproduce example-3.4"]
    lines.append(f"left (4 states): {b1}")
    lines.append(f"right (4 states): {b2}")
    lines.append(f"conjugate: {_bool_text(conjugate)}")
    lines.append(f"connected: {_bool_text(connected)}")
    for fmask, gmask in ((0b0011, 0b0011), (0b1001, 0b0110)):
        f_text = ",".join(str(a) for a in range(4) if fmask >> a & 1)
        g_text = ",".join(str(a) for a in range(4) if gmask >> a & 1)
        parts = []
        for op_name in ("and", "diff", "rdiff", "xor", "or"):
            op = BoolFn.by_name(op_name)
            c = _complexity_of(b1, b2, fmask, gmask, op)
            parts.append(f"{op.name}={c}")
        lines.append(f"F = {f_text}  Fp = {g_text}: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def _witness_actions(size: int, swapped: bool):
    cycle = tuple(range(1, size)) + (0,)
    swap = (1, 0) + tuple(range(2, size))
    return (swap, cycle) if swapped else (cycle, swap)


def _witness_semiautomaton(size: int, swapped: bool) -> Semiautomaton:
    a, b = _witness_actions(size, swapped)
    return Semiautomaton(size, ("a", "b"), {"a": a, "b": b})


def _reproduce_prop_1(m: Optional[int], n: Optional[int]) -> str:
    if m is None or n is None:
        raise ValueError("prop-1 needs --m and --n")
    if not (3 <= m <= 6 and 3 <= n <= 6):
        raise ValueError("prop-1 degrees must be between 3 and 6")
    lines = [f"reproduce prop-1 m={m} n={n}"]
    left = _witness_semiautomaton(m, swapped=False)
    lines.append(f"left: {m} states, a = full cycle, b = (0,1), final {m - 1}")
    fmask = 1 << (m - 1)
    gmask = 1 << (n - 1)
    canonical = [BoolFn.by_table(t) for t in CANONICAL_TABLES]
    sections = [("right-swapped",
                 _witness_semiautomaton(n, swapped=True),
                 f"right-swapped: {n} states, b = full cycle, a = (0,1),"
                 f" final {n - 1}")]
    if m != n:
        sections.append(
            ("right-same-shape",
             _witness_semiautomaton(n, swapped=False),
             f"right-same-shape: {n} states, a = full cycle, b = (0,1),"
             f" final {n - 1}"))
    all_ok = True
    for name, right, describe in sections:
        lines.append(describe)
        prod = direct_product(left, right)
        reach = reachable_states(prod)
        actions = [prod.actions[letter] for letter in prod.alphabet]
        parts = []
        section_ok = True
        for op in canonical:
            flat = flat_final_mask(op, fmask, m, gmask, n)
            c = moore_complexity(actions, reach, flat, prod.state_count)
            parts.append(f"{op.name}={c}")
            section_ok = section_ok and c == m * n
        lines.append(f"complexities vs {name}: " + " ".join(parts))
        lines.append(f"all equal m*n: {_bool_text(section_ok)}")
        all_ok = all_ok and section_ok
    if m == n:
        lines.append("right-same-shape: skipped (degrees equal)")
    lines.append(f"witness confirmed: {_bool_text(all_ok)}")
    return "\n".join(lines) + "\n"


def reproduce(ident: str, m: Optional[int] = None,
              n: Optional[int] = None) -> str:
    """Text report for one of the known worked scenarios."""
    if ident != "prop-1" and (m is not None or n is not None):
        raise ValueError(f"{ident} does not take --m/--n")
    if ident == "example-1":
        return _reproduce_example_1()
    if ident == "example-2.2":
        return _reproduce_example_2_2()
    if ident == "example-3.2":
        return _reproduce_example_3_2()
    if ident == "example-3.3":
        return _reproduce_example_3_3()
    if ident == "example-3.4":
        return _reproduce_example_3_4()
    if ident == "prop-1":
        return _reproduce_prop_1(m, n)
    raise ValueError(
        f"unknown reproduction id {ident!r}; known ids: "
        + ", ".join(REPRODUCE_IDS))
