"""Verification campaigns over products of basis automata.

Every instance's exact state count is found by two independent routes:
the pair route (product.pair_count, which searches the pair-graph
components of the start's pairs for a distinguishing pair) and the Moore
minimization oracle.  The row predicts the instance minimal when the pair
route counts m*n; a count that differs from Moore's aborts the whole
campaign, because it would mean one of the routes is wrong.  A pair
judge reads the bases' image tuples and builds no automaton object.

One pair judge (_PairJudge) serves every caller.  It holds what final sets
don't change for a basis pair from one start, and the verdict of each
{mask, ~mask} it has judged.  Its judge method gives the entry of a list
of finals masks, one per combo (the (F, F', op) choice of a row): the
verdicts, their texts and their tally.  _emit emits an entry: it is the
one place that writes rows, builds VerificationRecords and raises
TwoPathDisagreement, which ends the rows at the pair's first disagreement.
A sampled instance, evaluate_instance (the unreduced reference) and each
basis pair of a reproduction report go through _judge_pair: a fresh judge,
its tally added to the result, its rows emitted.

An exhaustive campaign (_sweep) judges one context per relabelling orbit
of basis pairs and class of start states, on one (F, F') per orbit of the
group G that the letters generate, and every pair of the orbit emits the
context's entry.

The pairs of a sweep share one cache of row bodies (see _combos), and it
stays small: the verdicts of a pair depend only on G, and few groups occur,
so the 3,888 pairs of 3x4 show 7 verdict sequences and the 46,656 of 4x4
at most 31.

A sweep runs in this process; a sampled campaign forks a child for each
range of its samples but the first of a round (_split).  reproduce and
REPRODUCE_IDS are re-exported from reproductions.

Campaigns stream rows in a fixed order (bases lexicographic, then left
finals, right finals and operation table ascending; samples in index
order): a report written twice from one configuration is byte-identical.
"""

import io
import os
import random
import struct
import sys
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import compress, islice
from operator import add, itemgetter
from typing import Callable, List, Optional, Sequence, TextIO, Tuple

from .automaton import finals_to_mask, mask_states, moore_complexity
from .boolops import BoolFn, is_proper, proper_functions
from .errors import CapExceededError, TwoPathDisagreement
from .perm import (
    Basis,
    Perm,
    _images_generate_symmetric,
    _point_orbit,
    bases_conjugate,
    basis_orbits,
)
from .product import (
    _bool_text,
    _states_text,
    flat_final_mask,
    pair_count,
    predict_connected,
    product_action,
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

# A sampled campaign gets one range per CPU the process may use, but no
# range of fewer samples than this.  A forked range costs 4 to 5.5 ms on a
# 2-CPU host, copy-on-write faults in both processes included: the time of
# about 40 samples at degree 5 and 55 to 65 at degrees 2 and 3.
_MIN_SAMPLE_RANGE = 32

# A range holds at most this many samples, one row each; a campaign with
# more runs in rounds.  The median sampled row takes 86 bytes at 5x5, 140 at
# 10x10, 289 at 20x20 and about 590 at 40x40, so a full range's spool takes
# about 43, 70, 144 and 295 MiB.
_SPOOL_ROWS = 1 << 19

# A sweep copies its rows into the report whenever its io.StringIO batch
# holds this many characters, not once per pair (about 12 KB at 3x4
# xor,xnor): on the exhaustive-3x4-xor benchmark, 2-CPU host, one write per
# pair read 9.96 to 10.15M instances/s, 64 KiB batches 13.0 to 13.4M, and
# a list batch that counts its characters in a write method 12.7 to 13.0M.
_BATCH = 1 << 16

# The CampaignResult counts of a tally (an _Entry's, a child's range's).
_TALLIES = ("total", "n_pass", "n_exception", "n_fail", "n_conjugate",
            "below_mn")

# A forked range's spool starts with this header, its tallies in _TALLIES
# order as 8-byte little-endian counts; its rows follow.
_HEADER = struct.Struct(f"<{len(_TALLIES)}Q")

# signal.SIGKILL; importing signal would add a millisecond to every start.
_SIGKILL = 9

# _emit's pick for an entry judged for the pair it emits: every verdict.
_ALL = itemgetter(slice(None))


# A report row is the pair's prefix, the combo's text and the verdict; the
# three helpers below are the only definition of the row format.
def _row_prefix(m: int, n: int, b1: str, b2: str, conjugate: bool,
                connected: bool) -> str:
    return (f"{m}\t{n}\t{b1}\t{b2}\t{_bool_text(conjugate)}"
            f"\t{_bool_text(connected)}\t")


def _combo_text(finals_left: Sequence[int], finals_right: Sequence[int],
                op: BoolFn) -> str:
    return (_states_text(finals_left) + "\t" + _states_text(finals_right)
            + "\t" + op.label())


def _verdict_text(predicted: bool, oracle: int, status: str) -> str:
    return f"\t{_bool_text(predicted)}\t{oracle}\t{status}"


@lru_cache(maxsize=None)
def enumerate_bases(n: int) -> Tuple[Basis, ...]:
    """All ordered generating pairs of S_n, lexicographic by image tuples:
    the bases of basis_orbits(n)."""
    return tuple(basis for basis, _, _ in basis_orbits(n))


class CampaignConfig(namedtuple(
        "CampaignConfig", ("m", "n", "mode", "sample_count", "seed", "ops",
                           "output"),
        defaults=("exhaustive", 0, 0, (), None))):
    """mode is "exhaustive" or "sample"; ops is a tuple of BoolFns, empty
    for all ten proper operations; output names a report file or is None."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        bad = [f.label() for f in self.ops if not is_proper(f)]
        if bad:
            raise ValueError(f"{bad[0]!r} depends on at most one argument;"
                             " campaigns only cover proper operations")
        if self.m < 2 or self.n < 2:
            raise ValueError("component automata need at least 2 states")
        if self.mode not in ("exhaustive", "sample"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sample" and self.sample_count < 1:
            raise ValueError("sampled mode needs a positive sample count")
        if self.mode == "exhaustive" and (self.seed or self.sample_count):
            raise ValueError("seed and sample count only apply to sampled mode")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be in 0..2^64-1, got {self.seed}")
        return self

    def resolved_ops(self) -> Tuple[BoolFn, ...]:
        # the first operation given for each table, by ascending table
        first = {f.table: f for f in reversed(self.ops or proper_functions())}
        return tuple(first[table] for table in sorted(first))


class VerificationRecord(namedtuple("VerificationRecord", (
        "m", "n", "b1", "b2", "conjugate", "connected", "finals_left",
        "finals_right", "op", "predicted", "oracle", "status"))):
    __slots__ = ()

    def tsv_row(self) -> str:
        return (_row_prefix(self.m, self.n, self.b1, self.b2,
                            self.conjugate, self.connected)
                + _combo_text(self.finals_left, self.finals_right, self.op)
                + _verdict_text(self.predicted, self.oracle, self.status))


# What a campaign gives each of its records to, if anything.
_Sink = Optional[Callable[[VerificationRecord], None]]


class CampaignResult:
    def __init__(self, config: CampaignConfig, total: int = 0,
                 n_pass: int = 0, n_fail: int = 0, n_exception: int = 0,
                 n_conjugate: int = 0, below_mn: int = 0,
                 first_fail: Optional[VerificationRecord] = None):
        self.config = config
        self.total = total
        self.n_pass = n_pass
        self.n_fail = n_fail
        self.n_exception = n_exception
        self.n_conjugate = n_conjugate
        self.below_mn = below_mn
        self.first_fail = first_fail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"CampaignResult({fields})"

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    def _add(self, tallies) -> None:
        """Add a tally, its counts in _TALLIES order."""
        counts = vars(self)
        for name, value in zip(_TALLIES, tallies):
            counts[name] += value

    def summary(self) -> str:
        return (
            f"summary: total={self.total} pass={self.n_pass}"
            f" exception-expected={self.n_exception} fail={self.n_fail}"
            f" conjugate={self.n_conjugate}"
        )


class _Entry:
    """A pair judged on a list of finals masks: the verdicts in mask order,
    their verdict texts, one tally of them (counts in _TALLIES order), and
    bodies: _emit's row bodies for each pick it was given."""

    __slots__ = ("verdicts", "texts", "tally", "bodies")


class _PairJudge:
    """One ordered basis pair from one start state: all that final sets
    don't change, and memo, the verdict of each {mask, ~mask} judged so
    far, keyed by the smaller of the two.

    head is (m, n, b1 text, b2 text, conjugate, connected), the first six
    fields of each of the pair's VerificationRecords; reachable lists the
    product states that start reaches along actions, ascending.
    """

    __slots__ = ("head", "mn", "conjugate", "connected", "start", "actions",
                 "reachable", "conjugate_bound", "memo")

    def __init__(self, b1: Basis, b2: Basis, start: int = 0):
        m, n = b1.degree, b2.degree
        mn = self.mn = m * n
        conjugator = bases_conjugate(b1, b2) if m == n else None
        self.conjugate = conjugator is not None
        self.start = start
        acts = self.actions = [product_action(b1.s.image, b2.s.image),
                               product_action(b1.t.image, b2.t.image)]
        self.reachable = tuple(compress(range(mn),
                                        _point_orbit(acts, start, mn)))
        self.connected = len(self.reachable) == mn
        # For conjugate bases the reachable part is forced: with conjugator
        # r and start (i0, j0) it is the graph of r (n states) when r(i0) =
        # j0, and every off-diagonal pair (x, r(y)), x != y (n(n-1) states),
        # when not.  The complexity is bounded by that count; the bound
        # is -1 when the reachable part has another shape.
        self.conjugate_bound = -1
        if self.conjugate:
            r = conjugator.image
            diagonal = r[start // n] == start % n
            expected = {x * n + r[y] for x in range(n) for y in range(n)
                        if (x == y) == diagonal}
            if set(self.reachable) == expected:
                self.conjugate_bound = len(expected)
        self.head = (m, n, str(b1), str(b2), self.conjugate, self.connected)
        self.memo = {}

    def judge(self, masks) -> _Entry:
        """The entry of the pair on a list of finals masks."""
        full = (1 << self.mn) - 1
        memo = self.memo
        verdicts = []
        for flat in masks:
            key = min(flat, flat ^ full)
            verdict = memo.get(key)
            if verdict is None:
                verdict = memo[key] = self._verdict(flat)
            verdicts.append(verdict)
        entry = _Entry()
        entry.verdicts, entry.bodies = verdicts, {}
        _, oracles, statuses, _, entry.texts = zip(*verdicts)
        count = len(verdicts)
        entry.tally = (
            count, statuses.count(STATUS_PASS),
            statuses.count(STATUS_EXCEPTION), statuses.count(STATUS_FAIL),
            count if self.conjugate else 0,
            # below_mn counts non-conjugate rows; no count exceeds m*n
            0 if self.conjugate else count - oracles.count(self.mn))
        return entry

    def _verdict(self, flat: int):
        """Both routes on one finals mask: (predicted, oracle, status,
        disagree, the row's verdict text with its newline).

        predicted is whether the pair route counts m*n states; disagree is
        None when its count equals Moore's, else the counts a
        TwoPathDisagreement carries, (Moore, pair route).
        """
        mn = self.mn
        count = pair_count(self.actions, self.reachable, self.start, flat, mn)
        oracle = moore_complexity(self.actions, self.reachable, flat, mn)
        predicted = count == mn
        disagree = None if count == oracle else (oracle, count)
        if disagree:
            status = STATUS_FAIL
        elif self.conjugate:
            status = (STATUS_PASS if oracle <= self.conjugate_bound
                      else STATUS_FAIL)
        elif self.connected and oracle == mn:
            status = STATUS_PASS
        elif self.connected and self.head[:2] in EXCEPTION_DEGREES:
            status = STATUS_EXCEPTION
        else:
            # a disconnected product contradicts the connectivity criterion
            status = STATUS_FAIL
        # interned, so that _emit's cache of row bodies compares its keys,
        # the verdict texts of a pair, by identity
        return (predicted, oracle, status, disagree,
                sys.intern(_verdict_text(predicted, oracle, status) + "\n"))


def _combos(m: int, n: int, triples):
    """A pair's combos for a list of (F, F', op), F and F' as masks, as
    (choices, masks, texts, bodies): each combo's choice (F and F' as state
    tuples, and op), flat finals mask and row text, and an empty cache of
    row bodies for _emit, which maps a pair's verdict texts, in combo order,
    to its rows without the pair's prefix.  A sweep's pairs share one."""
    choices = [(mask_states(f, m), mask_states(g, n), op)
               for f, g, op in triples]
    return (choices,
            [flat_final_mask(op, f, m, g, n) for f, g, op in triples],
            [_combo_text(*choice) for choice in choices], {})


def _emit(head, combos, entry: _Entry, pick: itemgetter,
          result: CampaignResult, sink: _Sink, out: Optional[TextIO]) -> None:
    """Write a pair's rows, give sink its records and set result.first_fail.

    entry was judged for this pair or for its orbit's representative, whose
    verdicts pick lists in this pair's combo order (_ALL: in the same one).
    The pair's first disagreement in that order ends its rows and its
    records and raises TwoPathDisagreement.  Records are built only for
    sink and for a pair with a FAIL: the campaign's first FAIL and a
    disagreement.  The caller adds the entry's tally to result.  out takes
    the prefix, then the prefix joined with entry.bodies[pick], which the
    first pair through pick takes from the cache in combos: a pair's
    verdict texts are hashed once per entry and pick.
    """
    choices, _, texts, shared = combos
    n_fail = entry.tally[3]
    stop = None
    if sink is not None or n_fail:
        verdicts = pick(entry.verdicts)
        if n_fail:
            # a disagreement is a FAIL
            stop = next((i + 1 for i, v in enumerate(verdicts) if v[3]), None)
    if out is not None:
        bodies = entry.bodies.get(pick)
        if bodies is None:
            verdict_texts = pick(entry.texts)
            bodies = shared.get(verdict_texts)
            if bodies is None:
                bodies = shared[verdict_texts] = list(
                    map(add, texts, verdict_texts))
            entry.bodies[pick] = bodies
        prefix = _row_prefix(*head)
        out.write(prefix)
        out.write(prefix.join(bodies if stop is None else bodies[:stop]))
    if sink is None and not n_fail:
        return
    # _make, not the class: its __new__ takes twelve arguments in Python,
    # which doubles the cost of a record, and a sink gets one per row
    records = islice(map(VerificationRecord._make, map(
        add, map(head.__add__, choices),
        map(itemgetter(slice(3)), verdicts))), stop)
    if n_fail:
        records = list(records)
        if result.first_fail is None:
            result.first_fail = next(
                rec for rec in records if rec.status == STATUS_FAIL)
    if sink is not None:
        for rec in records:
            sink(rec)
    if stop is not None:
        raise TwoPathDisagreement(records[-1].tsv_row(),
                                  *verdicts[stop - 1][3])


def _judge_pair(b1: Basis, b2: Basis, triples, result: CampaignResult,
                sink: _Sink, out: Optional[TextIO]) -> None:
    """Judge the pair (b1, b2) from state 0 on a fresh judge, on a list of
    (F, F', op), F and F' as masks, add its tally to result and emit it."""
    pair = _PairJudge(b1, b2)
    combos = _combos(*pair.head[:2], triples)
    entry = pair.judge(combos[1])
    result._add(entry.tally)
    _emit(pair.head, combos, entry, _ALL, result, sink, out)


def evaluate_instance(b1: Basis, b2: Basis, finals_left: Sequence[int],
                      finals_right: Sequence[int],
                      op: BoolFn) -> VerificationRecord:
    """Judge a single instance exactly as a campaign would, on a pair judge
    of its own: the unreduced reference for the campaigns' reductions.  A
    CampaignConfig applies their operation rule."""
    m, n = b1.degree, b2.degree
    if not (all(q in range(m) for q in finals_left)
            and all(q in range(n) for q in finals_right)):
        raise ValueError("final state out of range")
    fmask = finals_to_mask(finals_left)
    gmask = finals_to_mask(finals_right)
    if not (0 < fmask < (1 << m) - 1) or not (0 < gmask < (1 << n) - 1):
        raise ValueError("final sets must be proper and nonempty")
    records: List[VerificationRecord] = []
    _judge_pair(b1, b2, [(fmask, gmask, op)],
                CampaignResult(CampaignConfig(m, n, ops=(op,))),
                records.append, None)
    return records[0]


def exhaustive_instance_count(config: CampaignConfig) -> int:
    m, n = config.m, config.n
    return (len(basis_orbits(m)) * len(basis_orbits(n))
            * ((1 << m) - 2) * ((1 << n) - 2) * len(config.resolved_ops()))


def verify_theorem1(config: CampaignConfig, sink: _Sink = None,
                    out: Optional[TextIO] = None) -> CampaignResult:
    """Run the campaign described by config and return the tallies.

    Exhaustive mode walks every ordered basis pair, every pair of proper
    final sets and every requested operation; sampled mode draws instances
    as sample_instances describes.  When out is given the TSV report
    (header plus one row per instance) is streamed to it; config.output
    names a file to write when out is not supplied.
    """
    if config.mode == "exhaustive":
        total = exhaustive_instance_count(config)
        if total > EXHAUSTIVE_BUDGET:
            raise CapExceededError(
                f"exhaustive sweep would visit {total} instances"
                f" (budget {EXHAUSTIVE_BUDGET}); use sampled mode")
    if config.output is not None and out is None:
        with open(config.output, "w", encoding="ascii") as fh:
            return verify_theorem1(config, sink, fh)
    result = CampaignResult(config)
    if out is not None:
        out.write(REPORT_HEADER + "\n")
    if config.mode == "sample":
        _split(config, result, sink, out)
    else:
        _sweep(config, result, sink, out)
    return result


def _preimages(p: Sequence[int]) -> List[int]:
    """p^-1 F = {q : p(q) in F} as a mask at index F, for each mask F."""
    table = [0]
    for x in range(len(p)):
        bit = 1 << p.index(x)
        table += [v | bit for v in table]
    return table


def _relabellings(degree: int, stride: int, k: int):
    """(sides, tables): sides holds (basis, rep, text, relabelling index,
    r^-1(0)) for each entry (basis, rep, r) of basis_orbits(degree), and
    tables[relabelling index] lists stride * (r^-1 F - 1) + x for each
    proper finals mask F and x below k, one table per distinct r."""
    index = {}  # r's image -> its relabelling index
    sides = [(basis, rep, str(basis), index.setdefault(r.image, len(index)),
              r.image.index(0)) for basis, rep, r in basis_orbits(degree)]
    return sides, [[stride * (pre - 1) + x for pre in _preimages(r)[1:-1]
                    for x in range(k)] for r in index]


def _orbit_firsts(b1: Basis, b2: Basis) -> List[int]:
    """The least index in the orbit of each pair (F, F') of proper finals
    masks, at its index (F - 1) * (2^n - 2) + F' - 1, under the group that
    the letters generate, found along the letters' preimages."""
    acts = []
    for x, y in ((b1.s, b2.s), (b1.t, b2.t)):
        right = _preimages(y.image)[1:-1]
        acts.append([(f - 1) * len(right) + g - 1
                     for f in _preimages(x.image)[1:-1] for g in right])
    first = [-1] * len(acts[0])
    for p in range(len(first)):
        if first[p] < 0:
            for q in compress(range(len(first)),
                              _point_orbit(acts, p, len(first))):
                first[q] = p
    return first


def _sweep(config: CampaignConfig, result: CampaignResult, sink: _Sink,
           out: Optional[TextIO]) -> None:
    """Judge and emit every basis pair of an exhaustive campaign into
    result, sink and out, in lexicographic order, in this process.

    One context per relabelling orbit and start is judged first.
    Relabelling both bases by (r, s) in S_m x S_n renames product state
    (i, j) as (r(i), s(j)), start included, so the pair (r*rep1*r^-1,
    s*rep2*s^-1) from (0, 0) takes, for (F, F', op), the verdict of
    (rep1, rep2) from (r^-1(0), s^-1(0)) on (r^-1 F, s^-1 F', op).  The
    letters permute the product states, so an entry serves every start its
    context reaches: one per connected orbit, two per conjugate one (the
    diagonal and the off-diagonal; S_n is 2-transitive).

    An element (g1, g2) of the group G that the letters generate maps the
    flat finals of (F, F', op) to those of (g1 F, g2 F', op) and keeps the
    verdict, so a context judges each combo on the first (F, F') of its
    G-orbit.  With (m-1)(n-1) orbits, each is a whole (|F|, |F'|) class,
    which relabelling keeps, so every pair emits the entry as it is (_ALL);
    other pairs go through a pick, in which _emit finds a pair's own first
    disagreement.  _emit writes into a batch that out takes at each _BATCH
    characters and at the end, so a disagreement ends the report at its row.
    Each entry's tally, times the number of pairs that emit it, goes into
    result at the end: a disagreement or an error drops result anyway.
    """
    m, n = config.m, config.n
    ops = config.resolved_ops()
    combos = _combos(m, n, [(f, g, op) for f in range(1, (1 << m) - 1)
                            for g in range(1, (1 << n) - 1) for op in ops])
    # Combo index of (F, F', op) is ((F - 1) * (2^n - 2) + F' - 1) * k + the
    # op's position, with F and F' as masks and k operations.
    k = len(ops)
    positions = list(range(len(combos[0])))
    left, left_tables = _relabellings(m, ((1 << n) - 2) * k, 1)
    right, right_tables = _relabellings(n, k, k)
    judged = {}  # (rep1, rep2, state) -> (conjugate, connected), entry, pick
    weights = Counter()  # entry -> the number of pairs that emit it
    starts = [Counter((rep, start) for _, rep, _, _, start in side)
              for side in (left, right)]
    for (rep1, i0), pairs1 in sorted(starts[0].items()):
        for (rep2, j0), pairs2 in sorted(starts[1].items()):
            if (rep1, rep2, i0 * n + j0) not in judged:
                b1, b2 = left[rep1][0], right[rep2][0]
                pair = _PairJudge(b1, b2, i0 * n + j0)
                first = _orbit_firsts(b1, b2)
                entry = pair.judge([combos[1][f * k + x]
                                    for f in first for x in range(k)])
                sized = len(set(first)) == (m - 1) * (n - 1)
                cached = pair.head[4:], entry, _ALL if sized else None
                for state in pair.reachable:
                    judged[rep1, rep2, state] = cached
            entry = judged[rep1, rep2, i0 * n + j0][1]
            weights[entry] += pairs1 * pairs2
    picks = [[None] * len(right_tables) for _ in left_tables]
    batch = None if out is None else io.StringIO()
    try:
        for _, rep1, b1_text, li, i0 in left:
            for _, rep2, b2_text, ri, j0 in right:
                flags, entry, pick = judged[rep1, rep2, i0 * n + j0]
                # pick(xs) lists xs at the representative's index of each
                # combo; pairs with the same relabellings (li, ri) share it,
                # in picks[li][ri], and its indices come from positions, so
                # cached getters add no ints.
                pick = pick or picks[li][ri]
                if pick is None:
                    pick = picks[li][ri] = itemgetter(*[
                        positions[f + g]
                        for f in left_tables[li] for g in right_tables[ri]])
                _emit((m, n, b1_text, b2_text, *flags), combos, entry, pick,
                      result, sink, batch)
                if batch is not None and batch.tell() >= _BATCH:
                    out.write(batch.getvalue())
                    batch = io.StringIO()
        for entry, weight in weights.items():
            result._add([weight * count for count in entry.tally])
    finally:
        if batch is not None:
            out.write(batch.getvalue())


def _splitmix64(seed: int, index: int) -> int:
    """Output number `index` of the splitmix64 stream seeded with `seed`."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_SAMPLE_TRY_CAP = 10_000


@lru_cache(maxsize=None)
def _shuffle_steps(degree: int) -> Tuple[Tuple[int, int], ...]:
    """Random.shuffle's steps at the degree: (i, bit width of i + 1)."""
    return tuple((i, (i + 1).bit_length()) for i in range(degree - 1, 0, -1))


def _random_images(rng: random.Random, degree: int) -> Tuple[int, ...]:
    """rng.shuffle of range(degree) from the same bits, in fewer calls."""
    images = list(range(degree))
    getrandbits = rng.getrandbits
    for i, k in _shuffle_steps(degree):
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        images[i], images[j] = images[j], images[i]
    return tuple(images)


def _random_basis(rng: random.Random, degree: int) -> Basis:
    """rng's first pair of draws that generates S_n, the only one made Perms."""
    for _ in range(_SAMPLE_TRY_CAP):
        s, t = _random_images(rng, degree), _random_images(rng, degree)
        if _images_generate_symmetric((s, t), degree):
            return Basis._trusted(Perm._trusted(s), Perm._trusted(t))
    raise RuntimeError(f"no generating pair found at degree {degree} "
                       f"after {_SAMPLE_TRY_CAP} tries")


def sample_instances(config: CampaignConfig, sink: _Sink = None,
                     out: Optional[TextIO] = None) -> CampaignResult:
    """Seeded random campaign; sample i depends only on (seed, i).

    Each sample draws its own splitmix64 value from the configured seed and
    uses it to seed an independent generator, so reports are reproducible
    and insensitive to sample order.  In same-degree campaigns every eighth
    sample replaces the right basis with a conjugated copy of the left one.
    """
    if config.mode != "sample":
        raise ValueError("sample_instances needs a sample-mode config")
    return verify_theorem1(config, sink, out)


def _sample_range(config: CampaignConfig, result: CampaignResult,
                  sink: _Sink, out: Optional[TextIO], start: int,
                  stop: int) -> None:
    """Judge samples start..stop-1 into result, sink and out."""
    m, n = config.m, config.n
    ops = config.resolved_ops()
    for i in range(start, stop):
        rng = random.Random(_splitmix64(config.seed, i))
        b1 = _random_basis(rng, m)
        if m == n and i % CONJUGATE_SAMPLE_STRIDE == CONJUGATE_SAMPLE_STRIDE - 1:
            b2 = b1.conjugated(Perm._trusted(_random_images(rng, n)))
        else:
            b2 = _random_basis(rng, n)
        fmask = rng.randrange(1, (1 << m) - 1)
        gmask = rng.randrange(1, (1 << n) - 1)
        _judge_pair(b1, b2, [(fmask, gmask, ops[rng.randrange(len(ops))])],
                    result, sink, out)


def _split(config: CampaignConfig, result: CampaignResult, sink: _Sink,
           out: Optional[TextIO]) -> None:
    """Judge a sampled campaign into result, sink and out on every CPU the
    process may use.

    The samples are cut into contiguous ranges of at least
    _MIN_SAMPLE_RANGE, one per CPU, and into rounds of one range per CPU
    when a range would hold more than _SPOOL_ROWS samples.  In each round
    this process judges the first range and streams its rows; a forked
    child judges each other range (_fork_range) into a memfd spool that
    holds its tallies and its rows.  Then this process reaps the children
    in range order and keeps a range's spool only when its child exited
    with status 0; it judges every other range again here, since a sample
    depends only on the seed and its index.  So whatever ended a child's
    range (a FAIL, a disagreement, an exception, a signal), the report,
    result and exceptions are those of judging every sample here, and a
    failure that only the child met costs that range's time once more.
    A sink takes records in this process, so it gets one CPU, and so does
    a process running other threads, where a forked child could inherit a
    lock that a thread held.
    """
    count = config.sample_count
    # a process that started a thread has imported threading
    threading = sys.modules.get("threading")
    cpus = 1
    if (sink is None and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and hasattr(os, "memfd_create")
            and (threading is None or threading.active_count() == 1)):
        cpus = max(1, min(len(os.sched_getaffinity(0)),
                          count // _MIN_SAMPLE_RANGE))
    ranges = cpus * -(-count // (cpus * _SPOOL_ROWS))
    bounds = [count * r // ranges for r in range(ranges + 1)]
    children = {}  # pid -> (spool, start, stop)
    spools = []  # the round's spools, closed at its end
    try:
        for first in range(0, ranges, cpus):
            for r in range(first + 1, first + cpus):
                spools.append(os.memfd_create("permdfa-range"))
                _fork_range(config, children, spools[-1], out is not None,
                            bounds[r], bounds[r + 1])
            _sample_range(config, result, sink, out, bounds[first],
                          bounds[first + 1])
            for pid, (spool, start, stop) in list(children.items()):
                status = os.waitpid(pid, 0)[1]
                del children[pid]
                if status:
                    _sample_range(config, result, None, out, start, stop)
                else:
                    if out is not None:
                        _copy_spool(spool, out)
                    tallies = os.pread(spool, _HEADER.size, 0)
                    result._add(_HEADER.unpack(tallies))
            while spools:
                os.close(spools.pop())
    finally:
        # children not reaped yet belong to a campaign that was abandoned
        for pid in children:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
        while spools:
            os.close(spools.pop())


def _fork_range(config: CampaignConfig, children: dict, spool: int,
                report: bool, start: int, stop: int) -> None:
    """Fork a child that judges samples start..stop-1 into the memfd spool:
    its tallies as a _HEADER, then, when report is true, its rows as _emit
    wrote them.  The child exits with status 0 only when its range holds no
    FAIL and the whole header reached the spool, and with status 1
    otherwise, whatever ended the range.  children maps the child's pid to
    the spool and the range."""
    pid = os.fork()
    if pid:
        children[pid] = (spool, start, stop)
        return
    # The child leaves only through os._exit, so it never returns into the
    # caller, never flushes the buffers it inherited and prints nothing.
    status = 1
    try:
        part = CampaignResult(config)
        out = None
        if report:
            os.lseek(spool, _HEADER.size, os.SEEK_SET)
            # io.open, not open: the report's opener may be replaced
            out = io.open(spool, "w", encoding="ascii", closefd=False)
        _sample_range(config, part, None, out, start, stop)
        if out is not None:
            out.flush()
        header = _HEADER.pack(*[getattr(part, name) for name in _TALLIES])
        if not part.n_fail and os.pwrite(spool, header, 0) == _HEADER.size:
            status = 0
    finally:
        os._exit(status)


def _copy_spool(spool: int, out: TextIO) -> None:
    """Write the rows in a spool, after its tallies, to out, 64 KiB at a
    time."""
    offset = _HEADER.size
    while chunk := os.pread(spool, 1 << 16, offset):
        offset += len(chunk)
        out.write(chunk.decode("ascii"))


class ConnectivityCheck(namedtuple("ConnectivityCheck",
                                   ("total", "mismatches"))):
    """mismatches lists (b1 text, b2 text, predicted, actual)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_theorem2(m: int, n: int) -> ConnectivityCheck:
    """Compare predicted connectivity with the reachable states of a pair
    judge over all basis pairs."""
    total = 0
    mismatches = []
    for b1 in enumerate_bases(m):
        for b2 in enumerate_bases(n):
            total += 1
            predicted = predict_connected(b1, b2)
            actual = _PairJudge(b1, b2).connected
            if predicted != actual:
                mismatches.append((str(b1), str(b2), predicted, actual))
    return ConnectivityCheck(total, mismatches)
