"""Verification campaigns over products of basis automata.

Every instance is judged by two independent routes: the structural
prediction (connectivity of the product plus distinguishing pairs in the
pair graph) and the Moore minimization oracle.  The two must agree that an
instance is minimal exactly when the oracle count equals m*n, and every
count below m*n is recomputed by the table-filling oracle; a disagreement
aborts the whole campaign, because it would mean one of the routes is wrong.

A campaign judges a basis pair on its combos, the (F, F', op) choices of
its rows, into an entry (_Judged) that holds the verdicts and their tally,
then emits the entry (_emit): the one place that writes rows, adds tallies
to the CampaignResult, builds VerificationRecords and raises
TwoPathDisagreement.  Complementing the product's finals changes neither
the Nerode partition nor which pair-graph components hold a distinguishing
pair, so judging a pair judges each {mask, ~mask} once.

Exhaustive campaigns judge one basis pair per orbit of S_m x S_n relabelling
both bases; the orbit's other connected pairs emit its entry through a pick
that reorders its verdicts (see _sweep).  evaluate_instance judges a fresh
context per instance and so is the unreduced reference.

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
    _images_generate_symmetric,
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
    return tuple(generating_pairs(n))


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
    """Everything about one ordered basis pair that final sets don't change.

    head is (m, n, b1 text, b2 text, conjugate, connected), the first six
    fields of each of the pair's VerificationRecords.
    """

    __slots__ = (
        "head", "m", "n", "mn", "conjugate", "connected", "product",
        "actions", "reachable", "conjugate_bound", "components",
    )

    def __init__(self, b1: Basis, b2: Basis):
        self.m = b1.degree
        self.n = b2.degree
        self.mn = self.m * self.n
        conjugator = bases_conjugate(b1, b2) if self.m == self.n else None
        self.conjugate = conjugator is not None
        prod = self.product = direct_product(from_basis(b1), from_basis(b2))
        self.actions = [prod.actions[letter] for letter in prod.alphabet]
        self.reachable = reachable_states(prod)
        self.connected = len(self.reachable) == self.mn
        # For conjugate bases the reachable part is forced: with conjugator
        # r it is the graph of r (n states) when r fixes the shared start
        # state, and every off-diagonal pair (x, r(y)), x != y (n(n-1)
        # states), when it does not.  The complexity is bounded by that
        # count; the bound is -1 when the reachable part has another shape.
        self.conjugate_bound = -1
        if self.conjugate:
            r = conjugator.image
            n = self.n
            if r[0] == 0:
                expected = {x * n + r[x] for x in range(n)}
            else:
                expected = {x * n + r[y]
                            for x in range(n) for y in range(n) if y != x}
            if set(self.reachable) == expected:
                self.conjugate_bound = len(expected)
        self.components = (pair_graph(prod).components if self.connected
                           else None)
        self.head = (self.m, self.n, str(b1), str(b2), self.conjugate,
                     self.connected)


def _finals(mask: int, k: int) -> Tuple[int, ...]:
    return tuple(i for i in range(k) if mask >> i & 1)


def _combos(m: int, n: int, choices):
    """A pair's combos for the given (F, F', op) choices, as two lists:
    each choice with its flat finals mask appended, and each choice's row
    text."""
    return ([(finals_left, finals_right, op,
              flat_final_mask(op, finals_to_mask(finals_left), m,
                              finals_to_mask(finals_right), n))
             for finals_left, finals_right, op in choices],
            [_combo_text(*choice) for choice in choices])


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
    if disagree:
        status = STATUS_FAIL
    elif ctx.conjugate:
        status = STATUS_PASS if oracle <= ctx.conjugate_bound else STATUS_FAIL
    elif ctx.connected and oracle == mn:
        status = STATUS_PASS
    elif ctx.connected and (ctx.m, ctx.n) in EXCEPTION_DEGREES:
        status = STATUS_EXCEPTION
    else:
        # a disconnected product contradicts the connectivity criterion
        status = STATUS_FAIL
    return (predicted, oracle, status, disagree,
            _verdict_text(predicted, oracle, status) + "\n")


class _Judged:
    """A basis pair judged on its combos' choices, each {mask, ~mask} once:
    the verdicts (as _judge_mask gives them) in combo order, their verdict
    texts, and one tally of them.

    The tally: the status counts, below_mn (non-conjugate rows below m*n),
    reached_n (a conjugate pair's oracle reached n; None if not conjugate)
    and disagree_at, the index of the disagreement that ends judging.
    """

    __slots__ = ("verdicts", "texts", "n_pass", "n_exception", "n_fail",
                 "below_mn", "reached_n", "disagree_at")

    def __init__(self, ctx: _PairContext, choices):
        full = (1 << ctx.mn) - 1
        memo = {}
        verdicts = self.verdicts = []
        for choice in choices:
            flat = choice[3]
            key = min(flat, flat ^ full)
            verdict = memo.get(key)
            if verdict is None:
                verdict = memo[key] = _judge_mask(ctx, flat)
            verdicts.append(verdict)
            if verdict[3]:
                break
        _, oracles, statuses, _, self.texts = zip(*verdicts)
        self.n_pass = statuses.count(STATUS_PASS)
        self.n_exception = statuses.count(STATUS_EXCEPTION)
        self.n_fail = statuses.count(STATUS_FAIL)
        # no count exceeds m*n
        self.below_mn = 0 if ctx.conjugate else (
            len(oracles) - oracles.count(ctx.mn))
        self.reached_n = ctx.n in oracles if ctx.conjugate else None
        self.disagree_at = len(verdicts) - 1 if verdicts[-1][3] else None


def _emit(head, combos, entry: _Judged, pick: Optional[itemgetter],
          result: CampaignResult,
          sink: Optional[Callable[[VerificationRecord], None]],
          out: Optional[TextIO]) -> None:
    """Write a pair's rows, add its tally to result and give sink its records.

    entry was judged for this pair (pick None) or for its orbit's
    representative, whose verdicts pick lists in this pair's combo order.
    Records are built only for sink, for the campaign's first FAIL and for
    a disagreement, which ends the rows and raises TwoPathDisagreement.
    """
    choices, texts = combos
    if out is not None:
        # each row is the pair's prefix, the combo text and the verdict
        # text, which ends the row
        prefix = _row_prefix(*head)
        out.write(prefix + prefix.join(map(
            add, texts, entry.texts if pick is None else pick(entry.texts))))
    count = len(entry.verdicts)
    result.total += count
    result.n_pass += entry.n_pass
    result.n_exception += entry.n_exception
    result.n_fail += entry.n_fail
    result.below_mn += entry.below_mn
    if head[4]:
        result.n_conjugate += count
        if entry.reached_n:
            result.conjugate_attained = True
        elif result.conjugate_attained is None:
            result.conjugate_attained = False
    if sink is None and not entry.n_fail:
        return
    verdicts = entry.verdicts if pick is None else pick(entry.verdicts)

    def record(i):
        return VerificationRecord(*head, *choices[i][:3], *verdicts[i][:3])

    if sink is not None:
        for i in range(count):
            sink(record(i))
    if entry.n_fail and result.first_fail is None:
        result.first_fail = record([v[2] for v in verdicts].index(STATUS_FAIL))
    if entry.disagree_at is not None:
        at = entry.disagree_at
        raise TwoPathDisagreement(record(at).tsv_row(), *verdicts[at][3])


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
    ctx = _PairContext(b1, b2)
    combos = _combos(m, n, [(_finals(fmask, m), _finals(gmask, n), op)])
    holder: List[VerificationRecord] = []
    _emit(ctx.head, combos, _Judged(ctx, combos[0]), None,
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
        _sample(config, result, sink, out)
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
    The representative pair comes first in the stream, so its entry is
    complete before any other pair of its orbit reads it.  Conjugate pairs
    and pairs whose product is disconnected depend on the start state and
    are judged directly.
    """
    m, n = config.m, config.n
    ops = config.resolved_ops()
    proper = [[_finals(mask, k) for mask in range(1, (1 << k) - 1)]
              for k in (m, n)]
    # every basis pair of the sweep shares one table of combos
    combos = _combos(m, n, [(finals_left, finals_right, op)
                            for finals_left in proper[0]
                            for finals_right in proper[1] for op in ops])
    # Combo index of (F, F', op) is ((F - 1) * (2^n - 2) + F' - 1) * k + the
    # op's position, with F and F' as masks and k operations.
    k = len(ops)
    positions = list(range(len(combos[0])))
    left = _relabelled_offsets(m, ((1 << n) - 2) * k)
    right = _relabelled_offsets(n, k)
    judged = {}
    picks = {}
    for i, b1 in enumerate(enumerate_bases(m)):
        rep1, b1_text, f_offsets = left[i]
        for j, b2 in enumerate(enumerate_bases(n)):
            rep2, b2_text, g_offsets = right[j]
            entry = judged.get((rep1, rep2))
            if entry is None:
                ctx = _PairContext(b1, b2)
                head, pick, entry = ctx.head, None, _Judged(ctx, combos[0])
                if ((i, j) == (rep1, rep2) and ctx.connected
                        and not ctx.conjugate):
                    judged[rep1, rep2] = entry
            else:
                head = (m, n, b1_text, b2_text, False, True)
                # pick(xs) lists xs at the representative's index of each
                # combo; pairs with the same relabellings share it, and its
                # indices come from positions, so cached getters add no ints.
                pick = picks.get((f_offsets, g_offsets))
                if pick is None:
                    pick = picks[f_offsets, g_offsets] = itemgetter(*[
                        positions[f + g + x]
                        for f in f_offsets for g in g_offsets
                        for x in range(k)])
            _emit(head, combos, entry, pick, result, sink, out)


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
        if _images_generate_symmetric([s, t], degree):
            return Basis._trusted(Perm(s), Perm(t))
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


def _sample(config: CampaignConfig, result: CampaignResult,
            sink: Optional[Callable[[VerificationRecord], None]],
            out: Optional[TextIO]) -> None:
    """Sampled mode: each sample is a basis pair judged on one combo."""
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
        ctx = _PairContext(b1, b2)
        combos = _combos(m, n, [(_finals(fmask, m), _finals(gmask, n), op)])
        _emit(ctx.head, combos, _Judged(ctx, combos[0]), None, result, sink,
              out)


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
