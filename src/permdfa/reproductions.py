"""Reproduction reports.

Each known id rebuilds one worked scenario from first principles and prints
the quantities it is about.  The reports are frozen under tests/golden/.
Every complexity they print is judged as a campaign judges a basis pair,
each pair once on all of its instances (harness._judge_pair): the pair
route must count what Moore counts, or TwoPathDisagreement is raised.
"""

from typing import Optional

from . import harness
from .automaton import from_basis, is_connected, transition_semigroup
from .boolops import CANONICAL_TABLES, BoolFn, proper_functions
from .perm import Basis, Perm, _conjugator_text, bases_conjugate
from .product import (
    _bool_text,
    _pair_text,
    _states_text,
    classify_component,
    direct_product,
    flat_final_mask,
    format_pair_graph,
    has_distinguishing_pair,
    pair_graph,
)


def _judge(b1: Basis, b2: Basis, finals, ops):
    """The VerificationRecords of a basis pair, judged as a campaign judges
    them: a list for each (F, F') of finals, as masks, of one per op."""
    records = []
    harness._judge_pair(b1, b2, [(f, g, op) for f, g in finals for op in ops],
                        harness.CampaignResult(None), records.append, None)
    return [records[k:k + len(ops)] for k in range(0, len(records), len(ops))]


def _finals_text(rec) -> str:
    return (f"F = {_states_text(rec.finals_left)}"
            f"  Fp = {_states_text(rec.finals_right)}")


def _reproduce_example_1() -> str:
    b1 = Basis.parse("(0,1,2);(0,1)", 3)
    b2 = Basis.parse("(0,1,2);(1,2)", 3)
    b3 = Basis.parse("(0,1);(0,1,2)", 3)
    lines = ["reproduce example-1"]
    lines.append(f"degree 3 bases: b1 = {b1}  b2 = {b2}  b3 = {b3}")
    for name, other in (("b2", b2), ("b3", b3)):
        lines.append(f"conjugator b1 -> {name}: "
                     + _conjugator_text(bases_conjugate(b1, other)))
    orders = [len(transition_semigroup(from_basis(b)))
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
    finals = [(1, 1), (1, 2), (2, 1), (2, 2)]
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
            for records in _judge(bases[i], bases[j], finals, ops):
                parts = []
                for op, rec in zip(ops, records):
                    c = rec.oracle
                    parts.append(f"{op.name}={c}")
                    if op.name == "xor":
                        xor_low = xor_low and c < 4
                    elif op.name == "xnor":
                        xnor_low = xnor_low and c < 4
                    else:
                        others_full = others_full and c == 4
                lines.append(
                    f"{names[i]} x {names[j]}"
                    f" F={_states_text(records[0].finals_left)}"
                    f" Fp={_states_text(records[0].finals_right)}: "
                    + " ".join(parts))
    lines.append(f"xor below 4 in all products: {_bool_text(xor_low)}")
    lines.append(f"xnor below 4 in all products: {_bool_text(xnor_low)}")
    lines.append("other proper ops equal 4 in all products: "
                 + _bool_text(others_full))
    return "\n".join(lines) + "\n"


def _reproduce_example_3_2() -> str:
    b1 = Basis.parse("id;(0,1)", 2)
    b2 = Basis.parse("(0,1,2);(0,1)", 3)
    op = BoolFn.by_name("xor")
    fmask, gmask = 0b01, 0b011
    lines = ["reproduce example-3.2"]
    lines.append(f"left (2 states): {b1}")
    lines.append(f"right (3 states): {b2}")
    rec = _judge(b1, b2, [(fmask, gmask)], [op])[0][0]
    lines.append(_finals_text(rec) + f"  op = {op.label()}")
    flat = flat_final_mask(op, fmask, 2, gmask, 3)
    prod = direct_product(from_basis(b1), from_basis(b2))
    lines.append(format_pair_graph(prod, flat))
    lines.append(f"oracle complexity: {rec.oracle}")
    return "\n".join(lines) + "\n"


def _reproduce_example_3_3() -> str:
    b1 = Basis.parse("(0,1);(0,1,2)", 3)
    b2 = Basis.parse("(0,1);(1,3,2)", 4)
    fmask, gmask = 0b100, 0b0011
    lines = ["reproduce example-3.3"]
    lines.append(f"left (3 states): {b1}")
    lines.append(f"right (4 states): {b2}")
    records = _judge(b1, b2, [(fmask, gmask)],
                     list(map(BoolFn.by_name, ("and", "xor", "or"))))[0]
    lines.append(_finals_text(records[0]))
    for rec in records:
        lines.append(f"complexity {rec.op.label()}: {rec.oracle}")
    flat = flat_final_mask(BoolFn.by_name("and"), fmask, 3, gmask, 4)
    prod = direct_product(from_basis(b1), from_basis(b2))
    want = (prod.flat(0, 0), prod.flat(0, 3))
    comp = next(c for c in pair_graph(prod).components if want in c)
    label = classify_component(comp, 3, 4)
    dist = has_distinguishing_pair(comp, flat)
    lines.append(
        f"and-instance component containing {_pair_text(*want, 4)}:"
        f" kind={label.kind} exact={_bool_text(label.exact)}"
        f" size={len(comp)}"
        f" distinguishing={'some' if dist else 'none'}")
    lines.extend(f"  {_pair_text(u, v, 4)}" for u, v in comp)
    return "\n".join(lines) + "\n"


def _reproduce_example_3_4() -> str:
    b1 = Basis.parse("(0,1,2);(2,3)", 4)
    b2 = Basis.parse("(1,3,2);(0,2,1,3)", 4)
    ops = list(map(BoolFn.by_name, ("and", "diff", "rdiff", "xor", "or")))
    judged = _judge(b1, b2, ((0b0011, 0b0011), (0b1001, 0b0110)), ops)
    lines = ["reproduce example-3.4"]
    lines.append(f"left (4 states): {b1}")
    lines.append(f"right (4 states): {b2}")
    lines.append(f"conjugate: {_bool_text(judged[0][0].conjugate)}")
    lines.append(f"connected: {_bool_text(judged[0][0].connected)}")
    for records in judged:
        lines.append(_finals_text(records[0]) + ": " + " ".join(
            f"{rec.op.name}={rec.oracle}" for rec in records))
    return "\n".join(lines) + "\n"


def _witness(name: str, size: int, swapped: bool):
    """A prop-1 witness basis (a = full cycle, b = (0,1), or the reverse
    when swapped) and its description line."""
    cycle = Perm(tuple(range(1, size)) + (0,))
    swap = Perm((1, 0) + tuple(range(2, size)))
    if swapped:
        basis, shape = Basis(swap, cycle), "b = full cycle, a = (0,1)"
    else:
        basis, shape = Basis(cycle, swap), "a = full cycle, b = (0,1)"
    return basis, f"{name}: {size} states, {shape}, final {size - 1}"


def _reproduce_prop_1(m: Optional[int], n: Optional[int]) -> str:
    if m is None or n is None:
        raise ValueError("prop-1 needs --m and --n")
    if not (3 <= m <= 6 and 3 <= n <= 6):
        raise ValueError("prop-1 degrees must be between 3 and 6")
    lines = [f"reproduce prop-1 m={m} n={n}"]
    left, describe = _witness("left", m, swapped=False)
    lines.append(describe)
    fmask, gmask = 1 << (m - 1), 1 << (n - 1)
    canonical = [BoolFn.by_table(t) for t in CANONICAL_TABLES]
    all_ok = True
    for name, swapped in (("right-swapped", True),
                          ("right-same-shape", False)):
        if m == n and not swapped:
            lines.append(f"{name}: skipped (degrees equal)")
            break
        right, describe = _witness(name, n, swapped)
        lines.append(describe)
        counts = [rec.oracle for rec in _judge(left, right, [(fmask, gmask)],
                                               canonical)[0]]
        lines.append(f"complexities vs {name}: " + " ".join(
            f"{op.name}={c}" for op, c in zip(canonical, counts)))
        section_ok = counts.count(m * n) == len(counts)
        lines.append(f"all equal m*n: {_bool_text(section_ok)}")
        all_ok = all_ok and section_ok
    lines.append(f"witness confirmed: {_bool_text(all_ok)}")
    return "\n".join(lines) + "\n"


_REPORTS = {
    "example-1": _reproduce_example_1,
    "example-2.2": _reproduce_example_2_2,
    "example-3.2": _reproduce_example_3_2,
    "example-3.3": _reproduce_example_3_3,
    "example-3.4": _reproduce_example_3_4,
    "prop-1": _reproduce_prop_1,
}

REPRODUCE_IDS = tuple(_REPORTS)


def reproduce(ident: str, m: Optional[int] = None,
              n: Optional[int] = None) -> str:
    """Text report for one of the known worked scenarios."""
    report = _REPORTS.get(ident)
    if report is None:
        raise ValueError(
            f"unknown reproduction id {ident!r}; known ids: "
            + ", ".join(REPRODUCE_IDS))
    if ident != "prop-1" and (m is not None or n is not None):
        raise ValueError(f"{ident} does not take --m/--n")
    return report(m, n) if ident == "prop-1" else report()
