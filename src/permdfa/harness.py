"""Verification campaigns over products of basis automata.

Every instance is judged by two independent routes: the structural
prediction (connectivity of the product plus distinguishing pairs in the
pair graph) and the Moore minimization oracle.  The two must agree that an
instance is minimal exactly when the oracle count equals m*n, and every
count below m*n is recomputed by the table-filling oracle; a disagreement
aborts the whole campaign, because it would mean one of the routes is wrong.

Complementing the product's finals changes neither the Nerode partition nor
which pair-graph components hold a distinguishing pair, so within one basis
pair each {mask, ~mask} is judged once and later rows reuse the verdict.

Campaigns stream rows in a fixed order (bases lexicographic, then left
finals, then right finals, then operation table ascending; samples in index
order), so a report written twice with the same configuration is
byte-identical.
"""

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, TextIO, Tuple

from .automaton import (
    DFA,
    Semiautomaton,
    distinguishability_complexity,
    finals_to_mask,
    from_basis,
    is_connected,
    moore_complexity,
    reachable_states,
    transition_semigroup,
)
from .boolops import BoolFn, proper_functions
from .errors import CapExceededError, TwoPathDisagreement
from .perm import (
    Basis,
    Perm,
    bases_conjugate,
    conjugate,
    format_cycles,
    generating_pairs,
)
from .product import (
    all_distinguished,
    classify_component,
    direct_product,
    flat_final_mask,
    format_pair_graph,
    has_distinguishing_pair,
    pair_graph,
    predict_connected,
)

STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"
STATUS_EXCEPTION = "EXCEPTION-EXPECTED"

# Degree pairs where a connected non-conjugate product may still fall short
# of m*n states for some choice of finals and operation.
EXCEPTION_DEGREES = frozenset({(2, 2), (3, 4), (4, 3), (4, 4)})

# Refuse exhaustive sweeps above this many instances.
EXHAUSTIVE_BUDGET = 100_000_000

REPORT_COLUMNS = (
    "m", "n", "b1", "b2", "conjugate", "connected",
    "F", "Fp", "op", "predicted", "oracle", "status",
)
REPORT_HEADER = "\t".join(REPORT_COLUMNS)

# In same-degree sampled campaigns, every eighth sample is replaced by a
# conjugated copy of its left basis so the degenerate branch gets coverage.
CONJUGATE_SAMPLE_STRIDE = 8

_MASK64 = (1 << 64) - 1


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


# A report row is the pair's prefix, the combo's text and the verdict; the
# three helpers below are the only definition of the row format.
def _row_prefix(m: int, n: int, b1: str, b2: str, conjugate: bool,
                connected: bool) -> str:
    return (f"{m}\t{n}\t{b1}\t{b2}\t{_bool_text(conjugate)}"
            f"\t{_bool_text(connected)}\t")


def _combo_text(finals_left: Sequence[int], finals_right: Sequence[int],
                op: BoolFn) -> str:
    return (",".join(map(str, finals_left)) + "\t"
            + ",".join(map(str, finals_right)) + "\t" + op.label())


def _verdict_text(predicted: bool, oracle: int, status: str) -> str:
    return f"\t{_bool_text(predicted)}\t{oracle}\t{status}"


@lru_cache(maxsize=None)
def enumerate_bases(n: int) -> Tuple[Basis, ...]:
    """All ordered generating pairs of S_n, lexicographic by image tuples.

    Pairs with equal components are kept only at degree 2, the one degree
    where such a pair still generates.
    """
    return tuple(generating_pairs(n, allow_equal=n == 2))


@dataclass(frozen=True)
class CampaignConfig:
    m: int
    n: int
    mode: str = "exhaustive"  # "exhaustive" or "sample"
    sample_count: int = 0
    seed: int = 0
    ops: Tuple[BoolFn, ...] = ()  # empty means all ten proper operations
    output: Optional[str] = None

    def __post_init__(self):
        if self.m < 2 or self.n < 2:
            raise ValueError("component automata need at least 2 states")
        if self.mode not in ("exhaustive", "sample"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sample" and self.sample_count < 1:
            raise ValueError("sampled mode needs a positive sample count")

    def resolved_ops(self) -> Tuple[BoolFn, ...]:
        ops = self.ops or proper_functions()
        return tuple(sorted(ops, key=lambda f: f.table))


@dataclass
class VerificationRecord:
    m: int
    n: int
    b1: str
    b2: str
    conjugate: bool
    connected: bool
    finals_left: Tuple[int, ...]
    finals_right: Tuple[int, ...]
    op: BoolFn
    predicted: bool
    oracle: int
    status: str

    def tsv_row(self) -> str:
        return (_row_prefix(self.m, self.n, self.b1, self.b2,
                            self.conjugate, self.connected)
                + _combo_text(self.finals_left, self.finals_right, self.op)
                + _verdict_text(self.predicted, self.oracle, self.status))


@dataclass
class CampaignResult:
    config: CampaignConfig
    total: int = 0
    n_pass: int = 0
    n_fail: int = 0
    n_exception: int = 0
    n_conjugate: int = 0
    below_mn: int = 0
    conjugate_attained: Optional[bool] = None
    first_fail: Optional[VerificationRecord] = None

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    def summary(self) -> str:
        return (
            f"summary: total={self.total} pass={self.n_pass}"
            f" exception-expected={self.n_exception} fail={self.n_fail}"
            f" conjugate={self.n_conjugate}"
        )


class _PairContext:
    """Everything about one ordered basis pair that final sets don't change."""

    __slots__ = (
        "b1_text", "b2_text", "m", "n", "mn", "conjugate", "connected",
        "product", "actions", "reachable", "fixes_initial",
        "conjugate_shape_ok", "components", "prefix", "full", "verdicts",
    )

    def __init__(self, b1: Basis, b2: Basis):
        self.b1_text = str(b1)
        self.b2_text = str(b2)
        self.m = b1.degree
        self.n = b2.degree
        self.mn = self.m * self.n
        conjugator = None
        if self.m == self.n:
            conjugator = bases_conjugate(b1, b2)
        self.conjugate = conjugator is not None
        prod = self.product = direct_product(from_basis(b1), from_basis(b2))
        self.actions = [prod.actions[letter] for letter in prod.alphabet]
        self.reachable = reachable_states(prod)
        self.connected = len(self.reachable) == self.mn
        # For conjugate bases the reachable part is forced: with conjugator
        # r it is the graph of r when r fixes the shared start state, and
        # every off-diagonal pair (x, r(y)), x != y, when it does not.
        self.fixes_initial = False
        self.conjugate_shape_ok = False
        if self.conjugate:
            r = conjugator.image
            n = self.n
            self.fixes_initial = r[0] == 0
            if self.fixes_initial:
                expected = {x * n + r[x] for x in range(n)}
            else:
                expected = {x * n + r[y]
                            for x in range(n) for y in range(n) if y != x}
            self.conjugate_shape_ok = set(self.reachable) == expected
        if self.connected:
            self.components = [
                tuple(c) for c in pair_graph(prod).components]
        else:
            self.components = None
        self.prefix = _row_prefix(self.m, self.n, self.b1_text, self.b2_text,
                                  self.conjugate, self.connected)
        self.full = (1 << self.mn) - 1
        # Complement-canonical flat mask (bit mn-1 clear) -> _judge_mask.
        self.verdicts = {}


def _combo(finals_left: Tuple[int, ...], finals_right: Tuple[int, ...],
           op: BoolFn, m: int, n: int):
    """One (F, F', op) choice with its flat finals mask and row text."""
    flat = flat_final_mask(op, finals_to_mask(finals_left), m,
                           finals_to_mask(finals_right), n)
    return (finals_left, finals_right, op, flat,
            _combo_text(finals_left, finals_right, op))


def _final_op_combos(m: int, n: int, ops: Sequence[BoolFn]):
    """Every (F, F', op) choice as _combo builds it.

    The combos only depend on m, n and the operation tables, so one table is
    shared by every basis pair of a sweep.
    """
    combos = []
    for fmask in range(1, (1 << m) - 1):
        finals_left = tuple(i for i in range(m) if fmask >> i & 1)
        for gmask in range(1, (1 << n) - 1):
            finals_right = tuple(j for j in range(n) if gmask >> j & 1)
            for op in ops:
                combos.append(_combo(finals_left, finals_right, op, m, n))
    return combos


def _judge(ctx: _PairContext, oracle: int) -> str:
    if ctx.conjugate:
        # Conjugate bases force a disconnected product whose reachable part
        # is n states (graph of the conjugator) when the conjugator fixes
        # the start state and n(n-1) states otherwise; the complexity is
        # bounded by that count.
        bound = ctx.n if ctx.fixes_initial else ctx.n * (ctx.n - 1)
        ok = (not ctx.connected and ctx.conjugate_shape_ok
              and oracle <= bound)
        return STATUS_PASS if ok else STATUS_FAIL
    if not ctx.connected:
        # contradicts the connectivity criterion for non-conjugate pairs
        return STATUS_FAIL
    if oracle == ctx.mn:
        return STATUS_PASS
    if (ctx.m, ctx.n) in EXCEPTION_DEGREES:
        return STATUS_EXCEPTION
    return STATUS_FAIL


def _judge_mask(ctx: _PairContext, flat: int):
    """Both routes on one finals mask: (predicted, oracle, status, disagree,
    the row's verdict text with its newline)."""
    mn = ctx.mn
    predicted = ctx.connected and all_distinguished(ctx.components, flat)
    oracle = moore_complexity(ctx.actions, ctx.reachable, flat, mn)
    disagree = predicted != (oracle == mn)
    if oracle < mn and not disagree:
        p = ctx.product
        finals = [q for q in range(mn) if flat >> q & 1]
        dfa = DFA(mn, p.alphabet, p.actions, p.initial, finals)
        disagree = distinguishability_complexity(dfa) != oracle
    status = STATUS_FAIL if disagree else _judge(ctx, oracle)
    return (predicted, oracle, status, disagree,
            _verdict_text(predicted, oracle, status) + "\n")


def _evaluate(
    ctx: _PairContext,
    combo: Tuple[Tuple[int, ...], Tuple[int, ...], BoolFn, int, str],
    result: CampaignResult,
    sink: Optional[Callable[[VerificationRecord], None]],
    out: Optional[TextIO],
) -> None:
    finals_left, finals_right, op, flat, text = combo
    key = flat ^ ctx.full if flat >> (ctx.mn - 1) & 1 else flat
    verdict = ctx.verdicts.get(key)
    if verdict is None:
        verdict = ctx.verdicts[key] = _judge_mask(ctx, flat)
    predicted, oracle, status, disagree, suffix = verdict

    result.total += 1
    if status == STATUS_PASS:
        result.n_pass += 1
    elif status == STATUS_EXCEPTION:
        result.n_exception += 1
    else:
        result.n_fail += 1
    if ctx.conjugate:
        result.n_conjugate += 1
        if oracle == ctx.n:
            result.conjugate_attained = True
        elif result.conjugate_attained is None:
            result.conjugate_attained = False
    elif oracle < ctx.mn:
        result.below_mn += 1

    record = None
    if sink is not None or status == STATUS_FAIL and (
            disagree or result.first_fail is None):
        record = VerificationRecord(
            ctx.m, ctx.n, ctx.b1_text, ctx.b2_text, ctx.conjugate,
            ctx.connected, finals_left, finals_right, op, predicted,
            oracle, status)
        if status == STATUS_FAIL and result.first_fail is None:
            result.first_fail = record
    if out is not None:
        out.write(ctx.prefix + text + suffix)
    if sink is not None:
        sink(record)
    if disagree:
        raise TwoPathDisagreement(record.tsv_row())


def evaluate_instance(
    b1: Basis,
    b2: Basis,
    finals_left: Sequence[int],
    finals_right: Sequence[int],
    op: BoolFn,
) -> VerificationRecord:
    """Judge a single instance exactly as a campaign would."""
    m, n = b1.degree, b2.degree
    fmask = finals_to_mask(finals_left)
    gmask = finals_to_mask(finals_right)
    if not (0 < fmask < (1 << m) - 1) or not (0 < gmask < (1 << n) - 1):
        raise ValueError("final sets must be proper and nonempty")
    holder: List[VerificationRecord] = []
    combo = _combo(tuple(sorted(set(finals_left))),
                   tuple(sorted(set(finals_right))), op, m, n)
    _evaluate(_PairContext(b1, b2), combo,
              CampaignResult(CampaignConfig(m, n)), holder.append, None)
    return holder[0]


def exhaustive_instance_count(config: CampaignConfig) -> int:
    nb1 = len(enumerate_bases(config.m))
    nb2 = len(enumerate_bases(config.n))
    nf = (1 << config.m) - 2
    ng = (1 << config.n) - 2
    return nb1 * nb2 * nf * ng * len(config.resolved_ops())


def verify_theorem1(
    config: CampaignConfig,
    sink: Optional[Callable[[VerificationRecord], None]] = None,
    out: Optional[TextIO] = None,
) -> CampaignResult:
    """Run the campaign described by config and return the tallies.

    Exhaustive mode walks every ordered basis pair, every pair of proper
    final sets and every requested operation; sampled mode draws instances
    as sample_instances describes.  When out is given the TSV report
    (header plus one row per instance) is streamed to it; config.output
    names a file to write when out is not supplied.
    """
    if config.output is not None and out is None:
        with open(config.output, "w", encoding="ascii") as fh:
            return verify_theorem1(config, sink, fh)
    if config.mode == "sample":
        instances = _sampled_instances(config)
    else:
        instances = _exhaustive_instances(config)
    result = CampaignResult(config)
    if out is not None:
        out.write(REPORT_HEADER + "\n")
    for ctx, combos in instances:
        for combo in combos:
            _evaluate(ctx, combo, result, sink, out)
    return result


def _exhaustive_instances(config: CampaignConfig):
    """Each basis pair's context with the combo table all pairs share."""
    total = exhaustive_instance_count(config)
    if total > EXHAUSTIVE_BUDGET:
        raise CapExceededError(
            f"exhaustive sweep would visit {total} instances"
            f" (budget {EXHAUSTIVE_BUDGET}); use sampled mode")
    combos = _final_op_combos(config.m, config.n, config.resolved_ops())
    return ((_PairContext(b1, b2), combos)
            for b1 in enumerate_bases(config.m)
            for b2 in enumerate_bases(config.n))


def _splitmix64(seed: int, index: int) -> int:
    """Output number `index` of the splitmix64 stream seeded with `seed`."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_SAMPLE_TRY_CAP = 10_000


def _random_basis(rng: random.Random, degree: int) -> Basis:
    for _ in range(_SAMPLE_TRY_CAP):
        s = list(range(degree))
        rng.shuffle(s)
        t = list(range(degree))
        rng.shuffle(t)
        try:
            return Basis(Perm(s), Perm(t))
        except ValueError:
            continue
    raise RuntimeError(f"no generating pair found at degree {degree} "
                       f"after {_SAMPLE_TRY_CAP} tries")


def _random_perm(rng: random.Random, degree: int) -> Perm:
    images = list(range(degree))
    rng.shuffle(images)
    return Perm(images)


def sample_instances(
    config: CampaignConfig,
    sink: Optional[Callable[[VerificationRecord], None]] = None,
    out: Optional[TextIO] = None,
) -> CampaignResult:
    """Seeded random campaign; sample i depends only on (seed, i).

    Each sample draws its own splitmix64 value from the configured seed and
    uses it to seed an independent generator, so reports are reproducible
    and insensitive to sample order.  In same-degree campaigns every eighth
    sample replaces the right basis with a conjugated copy of the left one.
    """
    if config.mode != "sample":
        raise ValueError("sample_instances needs a sample-mode config")
    return verify_theorem1(config, sink, out)


def _sampled_instances(config: CampaignConfig):
    """Each sample's context with its one (F, F', op) combo."""
    m, n = config.m, config.n
    ops = config.resolved_ops()
    for i in range(config.sample_count):
        rng = random.Random(_splitmix64(config.seed, i))
        b1 = _random_basis(rng, m)
        if m == n and i % CONJUGATE_SAMPLE_STRIDE == CONJUGATE_SAMPLE_STRIDE - 1:
            r = _random_perm(rng, n)
            b2 = Basis(conjugate(r, b1.s), conjugate(r, b1.t))
        else:
            b2 = _random_basis(rng, n)
        fmask = rng.randrange(1, (1 << m) - 1)
        gmask = rng.randrange(1, (1 << n) - 1)
        op = ops[rng.randrange(len(ops))]
        finals_left = tuple(a for a in range(m) if fmask >> a & 1)
        finals_right = tuple(b for b in range(n) if gmask >> b & 1)
        yield _PairContext(b1, b2), (
            _combo(finals_left, finals_right, op, m, n),)


@dataclass
class ConnectivityCheck:
    total: int
    mismatches: List[Tuple[str, str, bool, bool]]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_theorem2(m: int, n: int) -> ConnectivityCheck:
    """Compare predicted and actual connectivity over all basis pairs."""
    total = 0
    mismatches = []
    for b1 in enumerate_bases(m):
        left = from_basis(b1)
        for b2 in enumerate_bases(n):
            total += 1
            predicted = predict_connected(b1, b2)
            actual = is_connected(direct_product(left, from_basis(b2)))
            if predicted != actual:
                mismatches.append((str(b1), str(b2), predicted, actual))
    return ConnectivityCheck(total, mismatches)


# ---------------------------------------------------------------------------
# Reproduction reports.  Each known id rebuilds one worked scenario from
# first principles and prints the quantities it is about.

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
    ctx = _PairContext(b1, b2)
    flat = flat_final_mask(op, fmask, b1.degree, gmask, b2.degree)
    return moore_complexity(ctx.actions, ctx.reachable, flat, ctx.mn)


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
    ctx = _PairContext(b1, b2)
    lines = ["reproduce example-3.4"]
    lines.append(f"left (4 states): {b1}")
    lines.append(f"right (4 states): {b2}")
    lines.append(f"conjugate: {_bool_text(ctx.conjugate)}")
    lines.append(f"connected: {_bool_text(ctx.connected)}")
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
    canonical = [BoolFn.by_table(t) for t in (1, 2, 4, 6, 7)]
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
