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

Exhaustive campaigns judge one basis pair per orbit of S_m x S_n relabelling
both bases; the orbit's other connected pairs reuse its verdicts (see
_sweep).  evaluate_instance builds a fresh context per instance and so is
the unreduced reference.

The reproduction reports live in reproductions; reproduce and
REPRODUCE_IDS are re-exported here.

Campaigns stream rows in a fixed order (bases lexicographic, then left
finals, then right finals, then operation table ascending; samples in index
order), so a report written twice with the same configuration is
byte-identical.
"""

import random
from dataclasses import dataclass
from functools import lru_cache
from operator import add, itemgetter
from typing import Callable, List, Optional, Sequence, TextIO, Tuple

from .automaton import (
    DFA,
    distinguishability_complexity,
    finals_to_mask,
    from_basis,
    is_connected,
    moore_complexity,
    reachable_states,
)
from .boolops import BoolFn, proper_functions
from .errors import CapExceededError, TwoPathDisagreement
from .perm import (
    Basis,
    Perm,
    bases_conjugate,
    conjugation_orbits,
    generating_pairs,
)
from .product import (
    all_distinguished,
    direct_product,
    flat_final_mask,
    pair_graph,
    predict_connected,
)
from .reproductions import REPRODUCE_IDS, reproduce

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
            self.components = pair_graph(prod).components
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
    the row's verdict text with its newline).

    disagree is None when the routes agree, else the counts a
    TwoPathDisagreement carries: (Moore, None) when the prediction disagrees
    with Moore, (Moore, table-filling) when the two minimizers do.
    """
    mn = ctx.mn
    predicted = ctx.connected and all_distinguished(ctx.components, flat)
    oracle = moore_complexity(ctx.actions, ctx.reachable, flat, mn)
    disagree = None
    if predicted != (oracle == mn):
        disagree = (oracle, None)
    elif oracle < mn:
        p = ctx.product
        finals = [q for q in range(mn) if flat >> q & 1]
        dfa = DFA(mn, p.alphabet, p.actions, p.initial, finals)
        table_filling = distinguishability_complexity(dfa)
        if table_filling != oracle:
            disagree = (oracle, table_filling)
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
        raise TwoPathDisagreement(record.tsv_row(), *disagree)


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
    if config.mode == "exhaustive":
        total = exhaustive_instance_count(config)
        if total > EXHAUSTIVE_BUDGET:
            raise CapExceededError(
                f"exhaustive sweep would visit {total} instances"
                f" (budget {EXHAUSTIVE_BUDGET}); use sampled mode")
    result = CampaignResult(config)
    if out is not None:
        out.write(REPORT_HEADER + "\n")
    if config.mode == "sample":
        for ctx, combo in _sampled_instances(config):
            _evaluate(ctx, combo, result, sink, out)
    else:
        _sweep(config, result, sink, out)
    return result


def _relabelled_offsets(degree: int, stride: int):
    """(representative index, text, offsets) for each basis of
    enumerate_bases(degree), where offsets[F - 1] is stride * (r^-1 F - 1)
    for each proper finals mask F and basis == r * rep * r^-1."""
    bases = enumerate_bases(degree)
    table = []
    for basis, (rep, r) in zip(bases, conjugation_orbits(bases)):
        img = r.image
        table.append((rep, str(basis), tuple(
            stride * (sum(1 << q for q in range(degree) if mask >> img[q] & 1)
                      - 1)
            for mask in range(1, (1 << degree) - 1))))
    return table


def _sweep(config: CampaignConfig, result: CampaignResult,
           sink: Optional[Callable[[VerificationRecord], None]],
           out: Optional[TextIO]) -> None:
    """Exhaustive mode, judging one basis pair per relabelling orbit.

    Relabelling both bases by (r, s) in S_m x S_n renames the product state
    (i, j) as (r(i), s(j)), and a connected product is strongly connected,
    so its complexity does not depend on the start state.  The pair
    (r*rep1*r^-1, s*rep2*s^-1) therefore takes, for (F, F', op), the
    verdict its representative pair (rep1, rep2) gave (r^-1 F, s^-1 F', op).
    The representative pair comes first in the stream, so its verdicts are
    complete before any other pair of its orbit reads them.  Conjugate pairs
    and pairs whose product is disconnected depend on the start state and
    are judged directly.
    """
    m, n = config.m, config.n
    ops = config.resolved_ops()
    combos = _final_op_combos(m, n, ops)
    texts = [combo[4] for combo in combos]
    # Combo index of (F, F', op) is ((F - 1) * (2^n - 2) + F' - 1) * k + the
    # op's position, with F and F' as masks and k operations.
    k = len(ops)
    positions = list(range(len(combos)))
    left = _relabelled_offsets(m, ((1 << n) - 2) * k)
    right = _relabelled_offsets(n, k)
    judged = {}
    picks = {}
    for i, b1 in enumerate(enumerate_bases(m)):
        rep1, b1_text, f_offsets = left[i]
        for j, b2 in enumerate(enumerate_bases(n)):
            rep2, b2_text, g_offsets = right[j]
            reps = judged.get((rep1, rep2))
            if reps is None:
                ctx = _PairContext(b1, b2)
                for combo in combos:
                    _evaluate(ctx, combo, result, sink, out)
                if ((i, j) == (rep1, rep2) and ctx.connected
                        and not ctx.conjugate):
                    full = ctx.full
                    verdicts = [ctx.verdicts[min(c[3], c[3] ^ full)]
                                for c in combos]
                    statuses = [v[2] for v in verdicts]
                    judged[rep1, rep2] = (
                        verdicts, [v[4] for v in verdicts],
                        (statuses.count(STATUS_PASS),
                         statuses.count(STATUS_EXCEPTION),
                         statuses.count(STATUS_FAIL),
                         sum(v[1] < ctx.mn for v in verdicts)))
                continue
            verdicts, suffixes, tally = reps
            # pick(xs) lists xs at the representative's index of each combo.
            # It depends only on the two relabellings, so pairs share it; its
            # indices come from positions, so cached getters add no ints.
            pick = picks.get((f_offsets, g_offsets))
            if pick is None:
                pick = picks[f_offsets, g_offsets] = itemgetter(*[
                    positions[f + g + x]
                    for f in f_offsets for g in g_offsets for x in range(k)])
            if out is not None:
                # each row is the pair's prefix, the combo text and the
                # representative's verdict text, which ends the row
                prefix = _row_prefix(m, n, b1_text, b2_text, False, True)
                out.write(prefix + prefix.join(
                    map(add, texts, pick(suffixes))))
            result.total += len(combos)
            result.n_pass += tally[0]
            result.n_exception += tally[1]
            result.n_fail += tally[2]
            result.below_mn += tally[3]
            if sink is not None:
                for (finals_left, finals_right, op, _, _), verdict in zip(
                        combos, pick(verdicts)):
                    predicted, oracle, status = verdict[:3]
                    sink(VerificationRecord(
                        m, n, b1_text, b2_text, False, True, finals_left,
                        finals_right, op, predicted, oracle, status))


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
    """Each sample's context with its (F, F', op) combo."""
    m, n = config.m, config.n
    ops = config.resolved_ops()
    for i in range(config.sample_count):
        rng = random.Random(_splitmix64(config.seed, i))
        b1 = _random_basis(rng, m)
        if m == n and i % CONJUGATE_SAMPLE_STRIDE == CONJUGATE_SAMPLE_STRIDE - 1:
            r = _random_perm(rng, n)
            b2 = b1.conjugated(r)
        else:
            b2 = _random_basis(rng, n)
        fmask = rng.randrange(1, (1 << m) - 1)
        gmask = rng.randrange(1, (1 << n) - 1)
        op = ops[rng.randrange(len(ops))]
        finals_left = tuple(a for a in range(m) if fmask >> a & 1)
        finals_right = tuple(b for b in range(n) if gmask >> b & 1)
        yield _PairContext(b1, b2), _combo(finals_left, finals_right, op,
                                           m, n)


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
