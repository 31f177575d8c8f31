"""Campaign engine: enumeration, judging, sampling, reports, reproduction."""

import bisect
import collections
import hashlib
import io
import operator
import os
import random
import signal
import sys
import threading
from functools import lru_cache
from pathlib import Path

import pytest

from permdfa import Basis, BoolFn, CapExceededError, TwoPathDisagreement
from permdfa import Perm, automaton, bases_conjugate, conjugate, harness
from permdfa import direct_product, from_basis, perm, product, reproductions
from permdfa.perm import basis_orbits
from permdfa.automaton import finals_to_mask, mask_states
from permdfa.boolops import proper_functions
from permdfa.harness import (
    CampaignConfig,
    REPORT_HEADER,
    REPRODUCE_IDS,
    _splitmix64,
    enumerate_bases,
    evaluate_instance,
    exhaustive_instance_count,
    reproduce,
    sample_instances,
    verify_theorem1,
    verify_theorem2,
)
from permdfa.product import flat_final_mask

GOLDEN = Path(__file__).parent / "golden"


class _Forks(list):
    """The pids forked, in order; peak is the most children alive at once."""

    peak = 0


@pytest.fixture
def split(monkeypatch):
    """A function that puts the given number of CPUs in the affinity mask,
    so that sampled campaigns cut their samples into one range per CPU,
    however short, and returns the pids forked from then on (a _Forks). At
    the end no child process may be left."""
    forks = _Forks()
    alive = set()
    fork, waitpid = os.fork, os.waitpid

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
            alive.add(pid)
            forks.peak = max(forks.peak, len(alive))
        return pid

    def counting_waitpid(pid, options):
        reaped = waitpid(pid, options)
        alive.discard(reaped[0])
        return reaped

    def set_cpus(cpus):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        forks.clear()
        forks.peak = 0
        return forks

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "waitpid", counting_waitpid)
    monkeypatch.setattr(harness, "_MIN_SAMPLE_RANGE", 1)
    yield set_cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _force_counts(monkeypatch, b1, b2, oracle, reachable=None):
    """Make both routes count oracle states, and a pair context's reachable
    states be reachable(its true states) when reachable is given, on the
    product of b1 and b2 alone."""
    target = list(direct_product(from_basis(b1), from_basis(b2))
                  .actions.values())
    monkeypatch.setattr(
        harness, "moore_complexity",
        lambda actions, *rest: oracle if list(actions) == target
        else automaton.moore_complexity(actions, *rest))
    monkeypatch.setattr(
        harness, "pair_count",
        lambda actions, *rest: oracle if list(actions) == target
        else product.pair_count(actions, *rest))
    if reachable is not None:
        def point_orbit(actions, start, size):
            seen = perm._point_orbit(actions, start, size)
            if list(actions) != target:
                return seen
            kept = bytearray(size)
            for q in reachable(tuple(q for q in range(size) if seen[q])):
                kept[q] = 1
            return kept

        monkeypatch.setattr(harness, "_point_orbit", point_orbit)


class TestEnumerateBases:
    def test_counts(self):
        assert len(enumerate_bases(2)) == 3
        assert len(enumerate_bases(3)) == 18
        assert len(enumerate_bases(4)) == 216
        assert len(enumerate_bases(5)) == 6840

    def test_equal_components_only_at_degree_two(self):
        assert sum(1 for b in enumerate_bases(2) if b.s == b.t) == 1
        assert all(b.s != b.t for b in enumerate_bases(3))
        assert all(b.s != b.t for b in enumerate_bases(4))

    def test_lexicographic_order(self):
        for n in (2, 3, 4):
            keys = [(b.s.image, b.t.image) for b in enumerate_bases(n)]
            assert keys == sorted(keys)

    def test_all_generate(self):
        from permdfa import generates_symmetric
        for b in enumerate_bases(3):
            assert generates_symmetric([b.s, b.t])

    def test_degree_one_has_none(self):
        assert enumerate_bases(1) == ()

    def test_bounds(self):
        with pytest.raises(ValueError):
            enumerate_bases(0)
        with pytest.raises(CapExceededError):
            enumerate_bases(6)


class TestCampaignConfig:
    def test_degree_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(1, 3)
        with pytest.raises(ValueError):
            CampaignConfig(3, 0)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(2, 2, mode="randomized")
        with pytest.raises(ValueError):
            CampaignConfig(2, 2, mode="sample", sample_count=0)

    def test_resolved_ops_default(self):
        ops = CampaignConfig(2, 2).resolved_ops()
        assert len(ops) == 10
        tables = [f.table for f in ops]
        assert tables == sorted(tables)

    def test_resolved_ops_subset(self):
        subset = (BoolFn.by_name("or"), BoolFn.by_name("and"))
        ops = CampaignConfig(2, 2, ops=subset).resolved_ops()
        assert [f.name for f in ops] == ["and", "or"]

    def test_improper_op_rejected(self):
        # the rule the CLI applies, with its message
        with pytest.raises(ValueError, match=(
                "'0011' depends on at most one argument;"
                " campaigns only cover proper operations")):
            CampaignConfig(2, 3, ops=(BoolFn(0b0011),))
        with pytest.raises(ValueError, match="proper operations"):
            CampaignConfig(2, 3, mode="sample", sample_count=5,
                           ops=(BoolFn.by_name("and"), BoolFn(0b1111)))

    def test_repeated_ops_count_once(self):
        and_ = BoolFn.by_name("and")
        once, twice = io.StringIO(), io.StringIO()
        res = verify_theorem1(CampaignConfig(2, 3, ops=(and_,)), out=once)
        again = verify_theorem1(CampaignConfig(2, 3, ops=(and_, and_)),
                                out=twice)
        assert res.total == again.total == 648
        assert twice.getvalue() == once.getvalue()
        # the first operation given for a table is the one reported
        ops = CampaignConfig(2, 2, ops=(BoolFn(0b0001), and_)).resolved_ops()
        assert [f.label() for f in ops] == ["0001"]

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in 0\.\.2\^64-1"):
            CampaignConfig(3, 3, mode="sample", sample_count=40, seed=seed)

    @pytest.mark.parametrize("sampling", [{"seed": 5}, {"sample_count": 7}])
    def test_sampling_parameters_rejected_when_exhaustive(self, sampling):
        # an exhaustive campaign would silently ignore them
        with pytest.raises(ValueError, match="only apply to sampled mode"):
            CampaignConfig(2, 3, **sampling)

    def test_seed_range_ends_are_accepted(self):
        for seed in (0, (1 << 64) - 1):
            CampaignConfig(3, 3, mode="sample", sample_count=40, seed=seed)

    def test_instance_count(self):
        assert exhaustive_instance_count(CampaignConfig(2, 2)) == 360
        assert exhaustive_instance_count(CampaignConfig(2, 3)) == 6480


class TestSplitmix:
    def test_reference_vectors(self):
        # first outputs of the standard splitmix64 stream for seed 0
        assert _splitmix64(0, 0) == 0xE220A8397B1DCDAF
        assert _splitmix64(0, 1) == 0x6E789E6AA1B965F4

    def test_streams_disjoint_from_index_shift(self):
        assert _splitmix64(7, 3) != _splitmix64(7, 4)
        assert _splitmix64(7, 3) != _splitmix64(8, 3)

    def test_sixty_four_bits(self):
        for i in range(50):
            assert 0 <= _splitmix64(12345, i) < (1 << 64)


class TestExhaustiveSweeps:
    def test_two_by_two(self):
        res = verify_theorem1(CampaignConfig(2, 2))
        assert res.total == 360
        assert res.n_fail == 0
        assert res.n_exception == 48
        assert res.n_pass == 312
        assert res.n_conjugate == 120
        assert res.below_mn == 48
        assert res.ok

    def test_two_by_three_all_full(self):
        res = verify_theorem1(CampaignConfig(2, 3))
        assert res.total == 6480
        assert res.n_pass == 6480
        assert res.n_exception == 0 and res.n_fail == 0
        assert res.n_conjugate == 0
        assert res.below_mn == 0

    def test_three_by_three(self):
        res = verify_theorem1(CampaignConfig(3, 3))
        assert res.total == 116640
        assert res.n_fail == 0
        assert res.n_exception == 0
        assert res.n_conjugate == 38880

    def test_report_stream(self):
        buf = io.StringIO()
        res = verify_theorem1(CampaignConfig(2, 2), out=buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == res.total + 1
        first = lines[1].split("\t")
        assert first[0] == "2" and first[1] == "2"
        assert first[-1] in ("PASS", "FAIL", "EXCEPTION-EXPECTED")

    def test_report_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        verify_theorem1(CampaignConfig(2, 2), out=a)
        verify_theorem1(CampaignConfig(2, 2), out=b)
        assert a.getvalue() == b.getvalue()

    def test_budget_refusal(self):
        with pytest.raises(CapExceededError):
            verify_theorem1(CampaignConfig(5, 5))

    def test_ops_filter(self):
        cfg = CampaignConfig(2, 2, ops=(BoolFn.by_name("xor"),))
        res = verify_theorem1(cfg)
        assert res.total == 36
        assert res.ok


class TestConjugateJudging:
    def test_conjugator_fixing_start_state(self):
        # conjugator (1,2) keeps state 0, so 3 reachable states
        b1 = Basis.parse("(0,1,2);(0,1)", 3)
        b2 = Basis.parse("(0,2,1);(0,2)", 3)
        rec = evaluate_instance(b1, b2, [0], [0], BoolFn.by_name("and"))
        assert rec.conjugate and not rec.connected
        assert not rec.predicted
        assert rec.oracle <= 3
        assert rec.status == "PASS"

    def test_conjugator_moving_start_state(self):
        # conjugator (0,2) moves state 0; 6 reachable states, all needed
        b1 = Basis.parse("(1,2);(0,1)", 3)
        b2 = Basis.parse("(0,1);(1,2)", 3)
        rec = evaluate_instance(b1, b2, [0], [0], BoolFn.by_name("and"))
        assert rec.conjugate and not rec.connected
        assert rec.oracle == 6
        assert rec.status == "PASS"

    def test_identical_bases(self):
        b = Basis.parse("(0,1,2);(0,1)", 3)
        rec = evaluate_instance(b, b, [0], [1], BoolFn.by_name("xor"))
        assert rec.conjugate
        assert rec.oracle <= 3
        assert rec.status == "PASS"

    # Both minimizers are made to agree on a count, so that only the
    # conjugate judge stands between it and a PASS.
    @pytest.mark.parametrize("b1,b2,bound", [
        ("(0,1,2);(0,1)", "(0,2,1);(0,2)", 3),  # conjugator fixes 0: n
        ("(1,2);(0,1)", "(0,1);(1,2)", 6),  # conjugator moves 0: n(n-1)
    ])
    def test_count_above_bound_fails(self, monkeypatch, b1, b2, bound):
        b1, b2 = Basis.parse(b1, 3), Basis.parse(b2, 3)
        op = BoolFn.by_name("and")
        for oracle, status in [(bound, "PASS"), (bound + 1, "FAIL")]:
            _force_counts(monkeypatch, b1, b2, oracle)
            rec = evaluate_instance(b1, b2, [0], [0], op)
            assert (rec.oracle, rec.status) == (oracle, status)

    def test_wrong_reachable_shape_fails(self, monkeypatch):
        b1 = Basis.parse("(0,1,2);(0,1)", 3)
        b2 = Basis.parse("(0,2,1);(0,2)", 3)
        op = BoolFn.by_name("and")
        _force_counts(monkeypatch, b1, b2, 1)
        assert evaluate_instance(b1, b2, [0], [0], op).status == "PASS"
        # the graph of the conjugator less one state
        _force_counts(monkeypatch, b1, b2, 1, lambda states: states[:-1])
        rec = evaluate_instance(b1, b2, [0], [0], op)
        assert (rec.oracle, rec.status) == (1, "FAIL")

    def test_fail_in_a_forked_range_reaches_the_summary(self, split,
                                                         monkeypatch):
        config = CampaignConfig(5, 5, mode="sample", sample_count=200, seed=1)
        records = []
        verify_theorem1(config, sink=records.append)
        # a conjugate sample in the second of two ranges
        target = next(r for r in records[100:] if r.conjugate)
        # above n(n-1) = 20 and below m*n = 25
        _force_counts(monkeypatch, Basis.parse(target.b1, 5),
                      Basis.parse(target.b2, 5), 24)
        runs = []
        for cpus in (1, 2):
            forks = split(cpus)
            buf = io.StringIO()
            runs.append((verify_theorem1(config, out=buf), buf.getvalue(),
                         len(forks)))
        (serial, serial_report, _), (result, report, forks) = runs
        assert forks == 1
        assert (result, report) == (serial, serial_report)
        assert result.n_fail == 1 and "fail=1" in result.summary()
        fail = result.first_fail
        assert (fail.b1, fail.b2, fail.oracle, fail.status) == (
            target.b1, target.b2, 24, "FAIL")
        assert fail.tsv_row() in report.splitlines()


class TestPinnedInstances:
    B34_LEFT = Basis.parse("(0,1);(0,1,2)", 3)
    B34_RIGHT = Basis.parse("(0,1);(1,3,2)", 4)
    B44_LEFT = Basis.parse("(0,1,2);(2,3)", 4)
    B44_RIGHT = Basis.parse("(1,3,2);(0,2,1,3)", 4)

    @pytest.mark.parametrize("op,oracle,status", [
        ("and", 6, "EXCEPTION-EXPECTED"),
        ("xor", 4, "EXCEPTION-EXPECTED"),
        ("or", 12, "PASS"),
    ])
    def test_three_by_four_instance(self, op, oracle, status):
        rec = evaluate_instance(self.B34_LEFT, self.B34_RIGHT, [2], [0, 1],
                                BoolFn.by_name(op))
        assert rec.oracle == oracle
        assert rec.status == status
        assert rec.connected and not rec.conjugate
        assert rec.predicted == (oracle == 12)

    @pytest.mark.parametrize("op,oracle,status", [
        ("and", 16, "PASS"),
        ("or", 16, "PASS"),
        ("xor", 4, "EXCEPTION-EXPECTED"),
    ])
    def test_four_by_four_instance(self, op, oracle, status):
        rec = evaluate_instance(self.B44_LEFT, self.B44_RIGHT, [0, 1], [0, 1],
                                BoolFn.by_name(op))
        assert rec.oracle == oracle
        assert rec.status == status

    def test_tsv_row_shape(self):
        rec = evaluate_instance(self.B34_LEFT, self.B34_RIGHT, [2], [0, 1],
                                BoolFn.by_name("and"))
        assert rec.tsv_row() == (
            "3\t4\t(0,1);(0,1,2)\t(0,1);(1,3,2)\tfalse\ttrue"
            "\t2\t0,1\tand\tfalse\t6\tEXCEPTION-EXPECTED")

    def test_improper_op_rejected(self):
        # the campaigns' operation rule: 0011 ignores its second argument
        with pytest.raises(ValueError, match="proper operations"):
            evaluate_instance(self.B34_LEFT, self.B34_RIGHT, [0], [0],
                              BoolFn(0b0011))

    def test_final_set_validation(self):
        with pytest.raises(ValueError):
            evaluate_instance(self.B34_LEFT, self.B34_RIGHT, [], [0],
                              BoolFn.by_name("and"))
        with pytest.raises(ValueError):
            evaluate_instance(self.B34_LEFT, self.B34_RIGHT, [0, 1, 2], [0],
                              BoolFn.by_name("and"))
        # a state outside 0..m-1 or 0..n-1 is named before the set is judged
        for left, right in (([3], [0]), ([0], [4]), ([-1], [0]), ([0], [-1])):
            with pytest.raises(ValueError, match="final state out of range"):
                evaluate_instance(self.B34_LEFT, self.B34_RIGHT, left, right,
                                  BoolFn.by_name("and"))


def _unreduced_instances(m, n, ops):
    """The arguments of evaluate_instance for every exhaustive instance, in
    stream order."""
    for b1 in enumerate_bases(m):
        for b2 in enumerate_bases(n):
            for fmask in range(1, (1 << m) - 1):
                left = [i for i in range(m) if fmask >> i & 1]
                for gmask in range(1, (1 << n) - 1):
                    right = [j for j in range(n) if gmask >> j & 1]
                    for op in ops:
                        yield b1, b2, left, right, op


@lru_cache(maxsize=None)
def _unreduced_records(m, n, ops):
    """Every exhaustive instance in stream order, each judged by
    evaluate_instance, which builds a fresh pair context per instance and
    so reuses no verdict of another mask or another basis pair."""
    return [evaluate_instance(*instance)
            for instance in _unreduced_instances(m, n, ops)]


def _first_flagged(m, n, ops):
    """(index, instance, row) of the first exhaustive instance, in stream
    order, that evaluate_instance flags with a TwoPathDisagreement."""
    for index, instance in enumerate(_unreduced_instances(m, n, ops)):
        try:
            evaluate_instance(*instance)
        except TwoPathDisagreement as exc:
            return index, instance, exc.row


def _evaluate_row(row):
    """The report row evaluate_instance gives for the instance of a row."""
    f = row.split("\t")
    m, n = int(f[0]), int(f[1])
    return evaluate_instance(
        Basis.parse(f[2], m), Basis.parse(f[3], n),
        [int(x) for x in f[6].split(",")], [int(x) for x in f[7].split(",")],
        BoolFn.parse(f[8])).tsv_row()


def _finals_orbit_first(b1, b2, fmask, gmask):
    """The least (F, F') in the orbit of (fmask, gmask) under the group that
    the letters (s1, s2) and (t1, t2) generate, by a closure over images."""
    def image(p, mask):
        return sum(1 << p.image[q] for q in range(len(p.image))
                   if mask >> q & 1)

    seen = {(fmask, gmask)}
    stack = [(fmask, gmask)]
    while stack:
        f, g = stack.pop()
        for x, y in ((b1.s, b2.s), (b1.t, b2.t)):
            pair = image(x, f), image(y, g)
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return min(seen)


# Exhaustive 2x3 with all ten operations, 3x3 with and and xor, which
# covers the conjugate (disconnected) branch, and 2x2 with all ten, where
# every relabelling is trivial.
UNREDUCED_SWEEPS = [(2, 3, ()), (3, 3, ("and", "xor")), (2, 2, ())]


class TestComplementMemo:
    """Campaign rows reuse one verdict per {mask, ~mask} within a basis pair;
    evaluate_instance builds a fresh pair context, so it never reuses one."""

    @pytest.mark.parametrize("m,n,ops", UNREDUCED_SWEEPS)
    def test_rows_equal_unmemoized_rows(self, m, n, ops):
        cfg = CampaignConfig(m, n, ops=tuple(map(BoolFn.by_name, ops)))
        buf = io.StringIO()
        verify_theorem1(cfg, out=buf)
        rows = buf.getvalue().splitlines()
        assert rows == [REPORT_HEADER] + [
            r.tsv_row() for r in _unreduced_records(m, n, cfg.resolved_ops())]

    @pytest.fixture
    def one_pair(self, monkeypatch):
        # the 3x4 pair of TestPinnedInstances, which has shortfalls, each
        # basis the only one of its orbit
        tables = {3: ((TestPinnedInstances.B34_LEFT, 0, Perm.identity(3)),),
                  4: ((TestPinnedInstances.B34_RIGHT, 0, Perm.identity(4)),)}
        monkeypatch.setattr(harness, "basis_orbits", tables.__getitem__)
        return CampaignConfig(3, 4)

    @pytest.fixture
    def sampled(self):
        # sampled 3x4 whose first shortfall is sample 33
        return CampaignConfig(3, 4, mode="sample", sample_count=100, seed=2)

    @pytest.mark.parametrize("campaign", ["one_pair", "sampled"])
    def test_count_disagreement_aborts(self, campaign, request, monkeypatch):
        config = request.getfixturevalue(campaign)
        _pair_count_off_by_one(monkeypatch)
        buf = io.StringIO()
        with pytest.raises(TwoPathDisagreement) as info:
            verify_theorem1(config, out=buf)
        row = info.value.row.split("\t")
        assert int(row[10]) < 12 and row[11] == "FAIL"
        assert buf.getvalue().splitlines()[-1] == info.value.row
        moore = info.value.moore
        assert moore == int(row[10])
        assert info.value.pair_route == moore - 1
        assert str(info.value).startswith(
            f"Moore {moore} vs pair route {moore - 1} on instance: ")

    @pytest.mark.parametrize("campaign", ["one_pair", "sampled"])
    def test_prediction_disagreement_names_routes(self, campaign, request,
                                                  monkeypatch):
        # the pair route never counts m*n, so it predicts no row minimal
        config = request.getfixturevalue(campaign)
        real = harness.pair_count
        monkeypatch.setattr(harness, "pair_count",
                            lambda *args: min(real(*args), 11))
        with pytest.raises(TwoPathDisagreement) as info:
            verify_theorem1(config)
        row = info.value.row.split("\t")
        assert row[9:] == ["false", "12", "FAIL"]
        assert (info.value.moore, info.value.pair_route) == (12, 11)
        assert str(info.value).startswith(
            "Moore 12 vs pair route 11 on instance: ")

    def test_pair_count_runs_once_per_shortfall_class(
            self, one_pair, monkeypatch):
        # A shortfall row's class is the flat mask of the first (F, F') in
        # its finals orbit, with its op, up to complement: 9 shortfall masks
        # up to complement fall into 6 classes.
        counts = []
        real = harness.pair_count

        def recording(*args):
            counts.append(real(*args))
            return counts[-1]

        monkeypatch.setattr(harness, "pair_count", recording)
        rows = []
        res = verify_theorem1(one_pair, sink=rows.append)
        assert res.ok and res.total == 840
        counts = [c for c in counts if c < 12]
        assert counts
        full = (1 << 12) - 1
        shortfall_masks, shortfall_classes = set(), set()
        for r in rows:
            if r.oracle < 12:
                fmask = finals_to_mask(r.finals_left)
                gmask = finals_to_mask(r.finals_right)
                flat = flat_final_mask(r.op, fmask, 3, gmask, 4)
                shortfall_masks.add(min(flat, flat ^ full))
                first = _finals_orbit_first(TestPinnedInstances.B34_LEFT,
                                            TestPinnedInstances.B34_RIGHT,
                                            fmask, gmask)
                flat = flat_final_mask(r.op, first[0], 3, first[1], 4)
                shortfall_classes.add(min(flat, flat ^ full))
        assert len(shortfall_masks) == 9
        assert len(counts) == len(shortfall_classes) == 6

    def test_full_complexity_skips_table_filling(self, monkeypatch):
        def forbidden(d):
            raise AssertionError("table filling ran on an m*n row")

        monkeypatch.setattr(automaton, "distinguishability_complexity",
                            forbidden)
        assert not hasattr(harness, "distinguishability_complexity")
        res = verify_theorem1(CampaignConfig(2, 3))
        assert res.n_pass == res.total == 6480


class _RowPicker:
    """A report stream that keeps only the rows at the wanted indices
    (0 is the first row after the header)."""

    def __init__(self, wanted):
        self.wanted = sorted(wanted)
        self.rows = {}
        self.next = -1  # the header
        self.partial = ""  # a row that the last write cut off

    def write(self, text):
        text = self.partial + text
        cut = text.rfind("\n") + 1
        text, self.partial = text[:cut], text[cut:]
        count = text.count("\n")
        start, self.next = self.next, self.next + count
        lo = bisect.bisect_left(self.wanted, start)
        hi = bisect.bisect_left(self.wanted, self.next, lo)
        if lo < hi:
            rows = text.splitlines()
            for index in self.wanted[lo:hi]:
                self.rows[index] = rows[index - start]


class _WriteLog(io.StringIO):
    """A report stream that keeps the length of each write and whether the
    write ends on a row boundary."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append((len(text), text.endswith("\n")))
        return super().write(text)


class _DigestStream:
    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("ascii"))


class TestOrbitReduction:
    """Exhaustive campaigns judge one representative pair per S_m x S_n
    relabelling orbit and class of start states, and give every pair of the
    orbit, conjugate pairs included, its representative's verdicts.
    TestComplementMemo.test_rows_equal_unmemoized_rows compares every row
    of exhaustive 2x2, 2x3 and 3x3 with evaluate_instance, the unreduced
    reference."""

    @pytest.mark.parametrize("degree,orbits,size", [
        (2, 3, 1), (3, 3, 6), (4, 9, 24)])
    def test_orbit_structure(self, degree, orbits, size):
        table = basis_orbits(degree)
        members = collections.defaultdict(list)
        for basis, rep, r in table:
            first = table[rep][0]
            members[rep].append(basis)
            assert table[rep][1:] == (rep, Perm.identity(degree))
            assert basis == Basis(conjugate(r, first.s), conjugate(r, first.t))
            if degree >= 3:
                assert bases_conjugate(first, basis) == r
        assert sorted(map(len, members.values())) == [size] * orbits
        # a representative comes first in its orbit
        assert all(group[0] is table[rep][0]
                   for rep, group in members.items())

    @pytest.mark.parametrize("m,n,ops", UNREDUCED_SWEEPS)
    def test_result_equals_unreduced_tally(self, m, n, ops):
        cfg = CampaignConfig(m, n, ops=tuple(map(BoolFn.by_name, ops)))
        res = verify_theorem1(cfg)
        records = _unreduced_records(m, n, cfg.resolved_ops())
        statuses = collections.Counter(r.status for r in records)
        conj = [r for r in records if r.conjugate]
        fails = [r for r in records if r.status == "FAIL"]
        assert res.total == len(records)
        assert res.n_pass == statuses["PASS"]
        assert res.n_exception == statuses["EXCEPTION-EXPECTED"]
        assert res.n_fail == statuses["FAIL"]
        assert res.n_conjugate == len(conj)
        assert res.below_mn == sum(r.oracle < m * n for r in records
                                   if not r.conjugate)
        assert res.first_fail == (fails[0] if fails else None)

    def test_failing_rows_follow_their_representative(self, monkeypatch):
        # Without exception degrees every 3x4 shortfall is a FAIL, in the
        # representative pairs and in the pairs that reuse their verdicts.
        monkeypatch.setattr(harness, "EXCEPTION_DEGREES", frozenset())
        buf = io.StringIO()
        res = verify_theorem1(
            CampaignConfig(3, 4, ops=(BoolFn.by_name("xor"),)), out=buf)
        fails = [row for row in buf.getvalue().splitlines()
                 if row.endswith("\tFAIL")]
        assert res.n_exception == 0
        assert res.n_fail == res.below_mn == len(fails) == 15552
        assert res.first_fail.tsv_row() == fails[0]
        for row in (fails[0], fails[len(fails) // 2], fails[-1]):
            assert _evaluate_row(row) == row

    def test_sampled_relabelled_rows_equal_unreduced_rows(self):
        # 500 seeded rows of the ten-operation 3x4 sweep, all from pairs
        # that reuse their representative's verdicts
        left, right = basis_orbits(3), basis_orbits(4)
        per_pair = 6 * 14 * 10
        pairs = [i * len(right) + j
                 for i in range(len(left)) for j in range(len(right))
                 if (left[i][1], right[j][1]) != (i, j)]
        rng = random.Random(5)
        wanted = {rng.choice(pairs) * per_pair + rng.randrange(per_pair)
                  for _ in range(500)}
        picker = _RowPicker(wanted)
        res = verify_theorem1(CampaignConfig(3, 4), out=picker)
        assert res.total == picker.next == 3265920
        assert sorted(picker.rows) == sorted(wanted)
        for row in picker.rows.values():
            assert _evaluate_row(row) == row

    def test_sampled_conjugate_rows_equal_unreduced_rows(self):
        # 200 seeded rows of the and-only 4x4 sweep, all from conjugate
        # pairs: half relabelled to start on the diagonal of their
        # representative (r^-1(0) = s^-1(0)), half off it
        table = basis_orbits(4)
        per_pair = 14 * 14
        starts = ([], [])  # pair indices off and on the diagonal
        for i, (_, rep1, r) in enumerate(table):
            for j, (_, rep2, s) in enumerate(table):
                if rep1 == rep2:
                    starts[r.image.index(0) == s.image.index(0)].append(
                        i * len(table) + j)
        rng = random.Random(7)
        wanted = {rng.choice(pairs) * per_pair + rng.randrange(per_pair)
                  for pairs in starts for _ in range(100)}
        picker = _RowPicker(wanted)
        res = verify_theorem1(
            CampaignConfig(4, 4, ops=(BoolFn.by_name("and"),)), out=picker)
        assert res.total == picker.next == 9144576
        assert sorted(picker.rows) == sorted(wanted)
        oracles = collections.defaultdict(set)
        for index, row in picker.rows.items():
            assert _evaluate_row(row) == row
            diagonal = index // per_pair in starts[1]
            oracles[diagonal].add(int(row.split("\t")[10]))
        # n states reachable on the diagonal, n(n-1) off it
        assert max(oracles[True]) <= 4 < max(oracles[False]) <= 12

    def test_one_judgement_per_orbit(self, monkeypatch):
        calls = collections.Counter()
        for module, name in ((harness, "_PairJudge"),
                             (harness, "moore_complexity"),
                             (harness, "pair_count"),
                             (product, "pair_graph")):
            def counting(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counting)
        # Campaigns never build the pair graph: harness does not import
        # pair_graph, and the counts below hold no pair_graph calls.
        assert not hasattr(harness, "pair_graph")
        # A context judges one mask per finals orbit and operation, up to
        # complement, where it judged one per mask: 567 Moore calls at 3x4,
        # 540 at 3x3 and 17,640 at 4x4.  Both routes count every judged
        # mask, conjugate contexts included.
        for m, n, ops, total, contexts, moore, searches in [
            # 27 representative pairs: 18 with one orbit per (|F|, |F'|),
            # 6 classes up to complement each, and 9 with 8
            (3, 4, ("xor", "xnor"), 653184, 27, 180, 180),
            # 6 connected pair orbits with 20 classes each, and 3 conjugate
            # ones with two start classes of 30 classes each
            (3, 3, (), 116640, 12, 300, 300),
            # 72 connected pair orbits, 54 with 9 classes and 18 with 10,
            # and 9 conjugate ones, 18 contexts of 19 classes
            (4, 4, ("and",), 9144576, 90, 1008, 1008),
        ]:
            calls.clear()
            res = verify_theorem1(CampaignConfig(
                m, n, ops=tuple(map(BoolFn.by_name, ops))))
            assert res.total == total
            assert calls == {"_PairJudge": contexts,
                             "moore_complexity": moore,
                             "pair_count": searches}

    def test_disagreement_in_a_relabelled_conjugate_context(
            self, monkeypatch):
        # Moore miscounts every product with n(n-1) = 6 reachable states,
        # the off-diagonal contexts of the conjugate 3x3 pairs, so the pair
        # route disagrees with it.  The first pair to meet one is a
        # representative b1 with a conjugate b2 != b1, whose entry comes
        # through a non-identity pick; the campaign ends at that pair's own
        # first row.
        config = CampaignConfig(3, 3, ops=(BoolFn.by_name("and"),))
        clean = io.StringIO()
        verify_theorem1(config, out=clean)
        clean_rows = clean.getvalue().splitlines()
        real = harness.moore_complexity
        monkeypatch.setattr(
            harness, "moore_complexity",
            lambda actions, reachable, *rest:
            real(actions, reachable, *rest) - (len(reachable) == 6))
        buf = io.StringIO()
        with pytest.raises(TwoPathDisagreement) as info:
            verify_theorem1(config, out=buf)
        rows = buf.getvalue().splitlines()
        assert rows[-1] == info.value.row
        assert rows[:-1] == clean_rows[:len(rows) - 1]
        fields = info.value.row.split("\t")
        assert fields[:9] == clean_rows[len(rows) - 1].split("\t")[:9]
        b1, b2 = Basis.parse(fields[2], 3), Basis.parse(fields[3], 3)
        assert b1 == enumerate_bases(3)[0] and b2 != b1
        assert bases_conjugate(b1, b2).image[0] != 0
        # the pair's own first combo, not its representative's
        assert fields[4:9] == ["true", "false", "0", "0", "and"]
        moore = int(fields[10])
        assert (info.value.moore, info.value.pair_route) == (
            moore, moore + 1)

    def test_disagreement_cut_through_a_pick(self, monkeypatch):
        # The pair route counts one state short only where Moore counts 6,
        # so only some rows of a context disagree.  3x3 and meets one first in
        # pair 4, (b, c) with b the first basis and c = s*b*s^-1 != b,
        # whose entry is that of (b, b) from (0, s^-1(0)): the pair's first
        # disagreement is its first combo, the entry's is its second.  (At
        # 3x4 the first pair of each orbit in the sweep is its
        # representative, which takes its entry through an identity pick.)
        ops = _ops("and")
        real = harness.pair_count
        monkeypatch.setattr(harness, "pair_count",
                            lambda *args: real(*args) - (real(*args) == 6))
        buf = io.StringIO()
        with pytest.raises(TwoPathDisagreement) as info:
            verify_theorem1(CampaignConfig(3, 3, ops=ops), out=buf)
        rows = buf.getvalue().splitlines()[1:]
        # judging every instance directly and in order flags the same row
        index, instance, flagged = _first_flagged(3, 3, ops)
        assert len(rows) == index + 1 == 4 * 36 + 1
        assert rows[-1] == info.value.row == flagged
        assert (info.value.moore, info.value.pair_route) == (6, 5)
        b, c = instance[:2]
        _, rep, s = basis_orbits(3)[4]
        assert c == enumerate_bases(3)[4] != b == enumerate_bases(3)[rep]
        ctx = harness._PairJudge(b, b, s.image.index(0))
        masks = harness._combos(3, 3, [
            (finals_to_mask(left), finals_to_mask(right), op)
            for _, _, left, right, op
            in _unreduced_instances(3, 3, ops)][:36])[1]
        entry = ctx.judge(masks)
        assert [i for i, v in enumerate(entry.verdicts) if v[3]][0] == 1
        # the entry holds every combo's verdict, and its tally every row
        assert len(entry.verdicts) == entry.tally[0] == len(masks) == 36

    def test_sweep_rows_reach_the_report_in_whole_batches(self):
        # 3x3 with all operations: 116,640 rows, about 6 MiB
        log = _WriteLog()
        verify_theorem1(CampaignConfig(3, 3), out=log)
        report = log.getvalue()
        assert hashlib.sha256(report.encode("ascii")).hexdigest() == (
            "c141bf397bfc665993f6b73fc30337e35ee814bc519788acf60a848110ee5ed5")
        header, *batches = log.writes  # the header is written on its own
        assert header == (len(REPORT_HEADER) + 1, True)
        assert len(batches) > 50
        assert all(size >= 1 << 16 for size, _ in batches[:-1])
        assert all(ends for size, ends in batches if size)

    def test_disagreement_ends_a_batched_report_at_its_row(self,
                                                           monkeypatch):
        # 2x3 with all operations: the first pair of the last left basis
        # disagrees at its first row, after more than 64 KiB of rows
        _moore_short_on_the_last_left_basis(monkeypatch)
        log = _WriteLog()
        with pytest.raises(TwoPathDisagreement) as info:
            verify_theorem1(CampaignConfig(2, 3), out=log)
        rows = log.getvalue().splitlines()[1:]
        index, _, flagged = _first_flagged(
            2, 3, CampaignConfig(2, 3).resolved_ops())
        assert len(rows) == index + 1 == 36 * 120 + 1
        assert rows[-1] == info.value.row == flagged
        sizes = [size for size, _ in log.writes[1:]]
        assert len(sizes) > 2 and min(sizes[:-1]) >= 1 << 16
        assert all(ends for _, ends in log.writes)

    # 3x3 covers the sink records of conjugate pairs
    @pytest.mark.parametrize("m,n,op,total", [
        (3, 4, "xor", 326592), (3, 3, "and", 11664)])
    def test_sink_sees_every_row(self, m, n, op, total):
        report, from_sink = _DigestStream(), _DigestStream()
        from_sink.write(REPORT_HEADER + "\n")
        count = 0

        def sink(record):
            nonlocal count
            count += 1
            from_sink.write(record.tsv_row() + "\n")

        res = verify_theorem1(CampaignConfig(m, n, ops=(BoolFn.by_name(op),)),
                              sink=sink, out=report)
        assert count == res.total == total
        assert from_sink.sha.hexdigest() == report.sha.hexdigest()

    def test_no_records_without_sink(self, monkeypatch):
        # with no sink and no FAIL, no row is turned into a record
        built = 0
        real = harness.VerificationRecord

        def counting(*args):
            nonlocal built
            built += 1
            return real(*args)

        monkeypatch.setattr(harness, "VerificationRecord", counting)
        res = verify_theorem1(CampaignConfig(
            3, 4, ops=(BoolFn.by_name("xor"), BoolFn.by_name("xnor"))))
        assert res.total == 653184 and res.ok
        assert built == 0

    def test_row_bodies_built_once_per_verdict_sequence(self, monkeypatch):
        # The verdicts of a pair depend only on the group it generates, so
        # the 3,888 pairs show 7 verdict sequences in their own combo order
        # and the sweep builds 7 lists of row bodies.
        caches, pairs = [], 0
        combos, emit = harness._combos, harness._emit

        def keeping(*args):
            made = combos(*args)
            caches.append(made[3])
            return made

        def counting(*args):
            nonlocal pairs
            pairs += 1
            emit(*args)

        monkeypatch.setattr(harness, "_combos", keeping)
        monkeypatch.setattr(harness, "_emit", counting)
        buf = io.StringIO()
        verify_theorem1(CampaignConfig(3, 4, ops=_ops("xor", "xnor")),
                        out=buf)
        assert pairs == 3888 and len(caches) == 1
        assert len(caches[0]) == 7
        assert all(len(bodies) == 168 for bodies in caches[0].values())
        assert hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest() == (
            "e2c154aea89bacf7170d0c2ea3d088e2faf384c32501ddf859b0238be3837d67")

    def test_one_tally_add_per_entry(self, monkeypatch):
        # A sweep adds each judged entry's tally once, times the number of
        # pairs that emit it, not once per pair.
        _, judged = _keep_sweep(monkeypatch)
        added = []
        add = harness.CampaignResult._add

        def counting(result, tallies):
            added.append(tuple(tallies))
            add(result, tallies)

        monkeypatch.setattr(harness.CampaignResult, "_add", counting)
        config = CampaignConfig(3, 4, ops=_ops("xor", "xnor"))
        res = verify_theorem1(config, out=io.StringIO())
        assert len(added) == len(judged) == 27
        assert [sum(column) for column in zip(*added)] == [
            res.total, res.n_pass, res.n_exception, res.n_fail,
            res.n_conjugate, res.below_mn]
        assert (res.total, res.n_exception, res.below_mn) == (
            653184, 31104, 31104)

    def test_verdict_texts_picked_once_per_entry_and_pick(self, monkeypatch):
        # Each pick lists an entry's verdict texts once, for the first pair
        # that emits the entry through it; every later pair reuses the
        # entry's bodies for that pick, which are one of the 7 lists of the
        # shared cache.
        caches, entries = [], set()
        picked = collections.Counter()
        wrapped = {}  # pick -> its counting wrapper, one per pick
        combos, emit = harness._combos, harness._emit

        def keeping(*args):
            made = combos(*args)
            caches.append(made[3])
            return made

        def counting(head, combos, entry, pick, *rest):
            entries.add(entry)
            if pick not in wrapped:
                def counted(xs, pick=pick):
                    if any(xs is e.texts for e in entries):
                        picked[pick, id(xs)] += 1
                    return pick(xs)
                wrapped[pick] = counted
            emit(head, combos, entry, wrapped[pick], *rest)

        monkeypatch.setattr(harness, "_combos", keeping)
        monkeypatch.setattr(harness, "_emit", counting)
        verify_theorem1(CampaignConfig(3, 4, ops=_ops("xor", "xnor")),
                        out=io.StringIO())
        assert len(entries) == 27 and len(caches) == 1
        # 1,314 (entry, pick) pairs emit the 3,888 pairs
        assert len(picked) == 1314 and max(picked.values()) == 1
        shared = list(caches[0].values())
        assert len(shared) == 7
        memoized = [bodies for entry in entries
                    for bodies in entry.bodies.values()]
        assert len(memoized) == len(picked)
        assert all(any(bodies is list_ for list_ in shared)
                   for bodies in memoized)


def _keep_sweep(monkeypatch):
    """Record the sweep's combo masks and each (context, entry) it judges:
    returns (masks holder, list of (ctx, entry))."""
    masks, judged = [], []
    combos, judge = harness._combos, harness._PairJudge.judge

    def keeping_combos(*args):
        made = combos(*args)
        masks.append(made[1])
        return made

    def keeping_judged(ctx, entry_masks):
        entry = judge(ctx, entry_masks)
        judged.append((ctx, entry))
        return entry

    monkeypatch.setattr(harness, "_combos", keeping_combos)
    monkeypatch.setattr(harness._PairJudge, "judge", keeping_judged)
    return masks, judged


class TestFinalsOrbits:
    """A sweep judges each combo of a context on the first (F, F') of its
    orbit under the group G that the letters generate, and a context with
    one such orbit per (|F|, |F'|) emits its entry with _ALL."""

    @pytest.mark.parametrize("m,n,ops,contexts", [
        (3, 4, (), 27), (4, 4, ("and", "xor"), 90)])
    def test_entries_equal_unmemoized_verdicts(self, monkeypatch, m, n, ops,
                                               contexts):
        masks, judged = _keep_sweep(monkeypatch)
        verify_theorem1(CampaignConfig(m, n, ops=_ops(*ops)))
        assert len(masks) == 1 and len(judged) == contexts
        # every representative context and start class, every combo
        for ctx, entry in judged:
            assert entry.verdicts == [ctx._verdict(mask)
                                      for mask in masks[0]]

    @pytest.mark.parametrize("m,n,ops,emitted,pairs", [
        (3, 4, ("xor", "xnor"), 2592, 3888), (4, 4, ("and",), 31104, 46656)])
    def test_size_invariant_entries_emit_as_judged(self, monkeypatch, m, n,
                                                   ops, emitted, pairs):
        relabellings = {k: {str(b): r.image for b, _, r in basis_orbits(k)}
                        for k in (m, n)}
        width, k = (1 << n) - 2, len(ops)
        getters = {}

        def pre(p, mask):
            return sum(1 << q for q in range(len(p)) if mask >> p[q] & 1)

        def relabelling_pick(r, s):
            # the pick that lists a representative's verdicts in the order
            # of the pair relabelled by (r, s): (F, F', op) reads the
            # representative's (r^-1 F, s^-1 F', op)
            if (r, s) not in getters:
                getters[r, s] = operator.itemgetter(*[
                    ((pre(r, f) - 1) * width + pre(s, g) - 1) * k + x
                    for f in range(1, (1 << m) - 1)
                    for g in range(1, width + 1) for x in range(k)])
            return getters[r, s]

        counts = collections.Counter()
        emit = harness._emit

        def checking(head, combos, entry, pick, *rest):
            counts[pick is harness._ALL] += 1
            if pick is harness._ALL:
                r = relabellings[m][head[2]]
                s = relabellings[n][head[3]]
                assert relabelling_pick(r, s)(entry.texts) == entry.texts
            emit(head, combos, entry, pick, *rest)

        monkeypatch.setattr(harness, "_emit", checking)
        verify_theorem1(CampaignConfig(m, n, ops=_ops(*ops)))
        assert counts == {True: emitted, False: pairs - emitted}
        # some of them are relabelled
        assert len(getters) > 1

    def test_disagreement_in_a_relabelled_s3_pair(self, monkeypatch):
        # A sweep of the first 3-basis L against the 4-basis b, listed
        # before its orbit's representative c, so that (L, b) is emitted
        # first.  (L, c) generates the S_3 fibre product, which has more
        # finals orbits than size classes, so (L, b) goes through a pick.
        # The pair route counts one state short where Moore counts 6: the
        # report ends at (L, b)'s own first such row, its 11th, not at the
        # entry's 5th.
        left = basis_orbits(3)[0]
        table = basis_orbits(4)
        b = Basis.parse("(1,2);(0,1,2,3)", 4)
        rep, s = next(entry[1:] for entry in table if entry[0] == b)
        assert table[rep][0] != b
        assert len(set(harness._orbit_firsts(left[0], table[rep][0]))) > 6
        orbits = {3: (left,), 4: ((b, 1, s), (table[rep][0], 1,
                                               Perm.identity(4)))}
        monkeypatch.setattr(harness, "basis_orbits", orbits.__getitem__)
        real = harness.pair_count
        monkeypatch.setattr(harness, "pair_count",
                            lambda *args: real(*args) - (real(*args) == 6))
        _, judged = _keep_sweep(monkeypatch)
        ops = _ops("and", "xor")
        buf = io.StringIO()
        with pytest.raises(TwoPathDisagreement) as info:
            verify_theorem1(CampaignConfig(3, 4, ops=ops), out=buf)
        rows = buf.getvalue().splitlines()[1:]
        # evaluate_instance on (L, b)'s instances in row order
        for index, (fmask, gmask, op) in enumerate(
                (f, g, op) for f in range(1, 7) for g in range(1, 15)
                for op in ops):
            try:
                evaluate_instance(left[0], b, mask_states(fmask, 3),
                                  mask_states(gmask, 4), op)
            except TwoPathDisagreement as exc:
                flagged = exc.row
                break
        assert len(rows) == index + 1 == 11
        assert rows[-1] == info.value.row == flagged
        assert info.value.row.split("\t")[2:4] == [str(left[0]), str(b)]
        assert (info.value.moore, info.value.pair_route) == (6, 5)
        entry = [e for ctx, e in judged if ctx.head[3] == str(table[rep][0])
                 and ctx.start == 0][0]
        assert [i for i, v in enumerate(entry.verdicts) if v[3]][0] == 4


class TestNoAutomatonObjects:
    @pytest.mark.parametrize("config,sha256", [
        (CampaignConfig(5, 5, mode="sample", sample_count=1000, seed=1),
         "f881ff7136c3fb512558ea9c83db3f8857c2acacf2ba5de3c1575256b1730c74"),
        (CampaignConfig(3, 4, ops=(BoolFn.by_name("xor"),
                                   BoolFn.by_name("xnor"))),
         "e2c154aea89bacf7170d0c2ea3d088e2faf384c32501ddf859b0238be3837d67"),
    ], ids=["sampled-5x5", "exhaustive-3x4-xor"])
    def test_campaigns_build_no_automaton(self, monkeypatch, config, sha256):
        # A campaign reads the bases' image tuples: no table filling, no
        # product or basis automaton, no reachability walk over one.  Every
        # automaton, from_basis's and ProductAutomaton's included, is built
        # through one of these __init__s.
        def forbidden(*args, **kwargs):
            raise AssertionError("a campaign built an automaton")

        names = ("distinguishability_complexity", "direct_product",
                 "from_basis", "reachable_states")
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "permdfa":
                for attr in names:
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, forbidden)
        for cls in (automaton.Semiautomaton, automaton.DFA,
                    product.ProductAutomaton):
            monkeypatch.setattr(cls, "__init__", forbidden)
        buf = io.StringIO()
        verify_theorem1(config, out=buf)
        assert hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest() == (
            sha256)


class TestSampling:
    def test_random_perm_draws_as_shuffle(self):
        # _random_images, which draws every random permutation of a
        # campaign, draws the bits Random.shuffle draws, so a Python whose
        # shuffle draws otherwise fails here rather than changing every
        # sampled report
        for seed in range(1000):
            rng, reference = random.Random(seed), random.Random(seed)
            for degree in range(2, 65):
                images = list(range(degree))
                reference.shuffle(images)
                assert harness._random_images(rng, degree) == tuple(
                    images), (seed, degree)
            assert rng.getstate() == reference.getstate()

    def test_random_basis_draws_as_the_perm_loop(self):
        # _random_basis tests image tuples and makes Perms only of the pair
        # it returns; the loop it replaced shuffled two Perms per try and
        # tested their images.  Same bases, same generator state after.
        for seed in range(200):
            for degree in range(2, 9):
                rng, reference = random.Random(seed), random.Random(seed)
                for _ in range(harness._SAMPLE_TRY_CAP):
                    s, t = list(range(degree)), list(range(degree))
                    reference.shuffle(s)
                    reference.shuffle(t)
                    s, t = Perm(s), Perm(t)
                    if perm._images_generate_symmetric([s.image, t.image],
                                                       degree):
                        break
                basis = harness._random_basis(rng, degree)
                assert (basis.s, basis.t) == (s, t), (seed, degree)
                assert rng.getstate() == reference.getstate()

    def test_requires_sample_mode(self):
        with pytest.raises(ValueError):
            sample_instances(CampaignConfig(3, 3))

    def test_deterministic_report(self):
        cfg = CampaignConfig(3, 3, mode="sample", sample_count=40, seed=9)
        a, b = io.StringIO(), io.StringIO()
        sample_instances(cfg, out=a)
        sample_instances(cfg, out=b)
        assert a.getvalue() == b.getvalue()
        assert len(a.getvalue().splitlines()) == 41

    def test_prefix_stability(self):
        # sample i depends only on (seed, i), so shorter runs are prefixes
        small = CampaignConfig(3, 3, mode="sample", sample_count=10, seed=5)
        large = CampaignConfig(3, 3, mode="sample", sample_count=25, seed=5)
        a, b = io.StringIO(), io.StringIO()
        sample_instances(small, out=a)
        sample_instances(large, out=b)
        assert b.getvalue().startswith(a.getvalue())

    def test_conjugate_stride(self):
        rows = []
        cfg = CampaignConfig(3, 3, mode="sample", sample_count=16, seed=1)
        res = sample_instances(cfg, sink=rows.append)
        assert res.total == 16
        assert rows[7].conjugate
        assert rows[15].conjugate
        assert res.n_conjugate >= 2

    def test_no_injection_across_degrees(self):
        cfg = CampaignConfig(2, 3, mode="sample", sample_count=24, seed=1)
        res = sample_instances(cfg)
        assert res.n_conjugate == 0
        assert res.ok

    def test_dispatch_through_verify(self):
        cfg = CampaignConfig(3, 3, mode="sample", sample_count=8, seed=3)
        direct = io.StringIO()
        routed = io.StringIO()
        sample_instances(cfg, out=direct)
        verify_theorem1(cfg, out=routed)
        assert direct.getvalue() == routed.getvalue()

    def test_output_file(self, tmp_path):
        path = tmp_path / "report.tsv"
        cfg = CampaignConfig(3, 3, mode="sample", sample_count=6, seed=2,
                             output=str(path))
        res = sample_instances(cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == res.total + 1


@lru_cache(maxsize=None)
def _one_range_campaign(config):
    """(report, result) of config judged in one range, which a sink
    forces."""
    buf = io.StringIO()
    result = verify_theorem1(config, sink=lambda record: None, out=buf)
    return buf.getvalue(), result


def _ops(*names):
    return tuple(map(BoolFn.by_name, names))


# A sampled campaign and a sweep, each small.
SMALL_CAMPAIGNS = {
    "sample": CampaignConfig(3, 3, mode="sample", sample_count=40, seed=9),
    "sweep": CampaignConfig(2, 3),
}


def _pair_count_off_by_one(monkeypatch):
    # the pair route counts one state short on every row below m*n
    real = harness.pair_count

    def short(actions, reachable, start, mask, state_count):
        count = real(actions, reachable, start, mask, state_count)
        return count - (count < state_count)

    monkeypatch.setattr(harness, "pair_count", short)


def _swaps_left(actions):
    """Whether both letters swap the left states: true of the products of
    (0,1);(0,1), the last of the three left bases of degree 2, so only in
    the last third of a 2x3 sweep."""
    return all(action[0] // 3 == 1 for action in actions)


def _moore_short_on_the_last_left_basis(monkeypatch):
    real = harness.moore_complexity
    monkeypatch.setattr(
        harness, "moore_complexity",
        lambda actions, *rest: real(actions, *rest) - _swaps_left(actions))


def _all_short_on_the_last_left_basis(monkeypatch):
    # both routes count one state less: a FAIL on every row of those
    # products, and no disagreement
    _moore_short_on_the_last_left_basis(monkeypatch)
    real = harness.pair_count
    monkeypatch.setattr(
        harness, "pair_count",
        lambda actions, *rest: real(actions, *rest) - _swaps_left(actions))


def _forks_expected(config, cpus):
    """The children a campaign forks with cpus CPUs in the affinity mask and
    no range minimum: one per extra CPU in sampled mode, none in a sweep."""
    return cpus - 1 if config.mode == "sample" else 0


class TestSplitSamples:
    """A sampled campaign cut into ranges that forked children judge gives
    the report, result and exceptions of judging every sample in one
    process.  An exhaustive sweep judges every basis pair in this process,
    whatever the affinity mask holds."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("config,sha256", [
        # the pinned reports of tests/test_cli.py
        (CampaignConfig(5, 5, mode="sample", sample_count=1000, seed=1),
         "f881ff7136c3fb512558ea9c83db3f8857c2acacf2ba5de3c1575256b1730c74"),
        (CampaignConfig(7, 7, mode="sample", sample_count=50, seed=42),
         "b5c1393367b35fcbae39003a911c963f7e271c03a3d383bcf8c5fde49c869577"),
        (CampaignConfig(10, 10, mode="sample", sample_count=100, seed=42),
         "b4395b296ea6a044741d41acfe384988e0a6de1d304f70b50caf5fb3bb4e7458"),
        # 4x4 ranges that mix conjugate and other samples; at 12 samples
        # (seed 8), sample 7 is the one conjugate sample, so one range
        # holds it and the others hold none
        (CampaignConfig(4, 4, mode="sample", sample_count=24, seed=8), None),
        (CampaignConfig(4, 4, mode="sample", sample_count=24, seed=3), None),
        (CampaignConfig(4, 4, mode="sample", sample_count=12, seed=8), None),
        # sweeps, which fork nothing
        (CampaignConfig(2, 3),
         "e8fc49ff9e60d8e514d256870a19d6dc13dae607a8d5404208e999377030a873"),
        (CampaignConfig(3, 3),
         "c141bf397bfc665993f6b73fc30337e35ee814bc519788acf60a848110ee5ed5"),
        (CampaignConfig(3, 4, ops=_ops("xor", "xnor")),
         "e2c154aea89bacf7170d0c2ea3d088e2faf384c32501ddf859b0238be3837d67"),
    ], ids=["5x5", "7x7", "10x10", "4x4-seed8", "4x4-seed3", "4x4-short",
            "sweep-2x3", "sweep-3x3", "sweep-3x4-xor"])
    def test_split_equals_serial(self, split, config, sha256, cpus):
        report, result = _one_range_campaign(config)
        if sha256 is not None:
            assert hashlib.sha256(report.encode("ascii")).hexdigest() == sha256
        forks = split(cpus)
        buf = io.StringIO()
        assert verify_theorem1(config, out=buf) == result
        assert buf.getvalue() == report
        assert len(forks) == _forks_expected(config, cpus)

    @pytest.mark.parametrize("config,miscount,rows,cpus", [
        # 3x4 seed 2: the first shortfall, sample 33, is in this process's
        # range for two CPUs and opens the second range for three
        pytest.param(
            CampaignConfig(3, 4, mode="sample", sample_count=100, seed=2),
            _pair_count_off_by_one, 34, cpus, id=str(cpus))
        for cpus in (2, 3)] + [
        # a sweep forks nothing; the first of the 18 pairs of the last left
        # basis ends the report at its first row
        pytest.param(CampaignConfig(2, 3), _moore_short_on_the_last_left_basis,
                     36 * 120 + 1, cpus, id=f"sweep-{cpus}")
        for cpus in (2, 3)])
    def test_disagreement(self, split, monkeypatch, config, miscount, rows,
                          cpus):
        miscount(monkeypatch)
        runs = []
        for c in (1, cpus):
            forks = split(c)
            buf = io.StringIO()
            with pytest.raises(TwoPathDisagreement) as info:
                verify_theorem1(config, out=buf)
            exc = info.value
            runs.append((buf.getvalue(), exc.row, exc.moore,
                         exc.pair_route, str(exc)))
        assert len(forks) == _forks_expected(config, cpus)
        assert runs[1] == runs[0]
        assert len(runs[0][0].splitlines()) == 1 + rows  # the header first

    @pytest.mark.parametrize("config,shortfall,first,n_fail,cpus", [
        # With no degree pair excused, each shortfall of 3x4 seed 2 is a
        # FAIL: samples 33, 42, 55 and 70, so every range after the first
        # has one.
        pytest.param(
            CampaignConfig(3, 4, mode="sample", sample_count=100, seed=2),
            None, 33, 4, cpus, id=str(cpus))
        for cpus in (2, 3)] + [
        # 2x2, in one process: pairs 1, 2, 3, 5, 6 and 7 of 9 have
        # shortfalls
        pytest.param(CampaignConfig(2, 2), None, 43, 48, cpus,
                     id=f"sweep-{cpus}")
        for cpus in (2, 3)] + [
        # 2x3, in one process: every row of the last 18 pairs fails
        pytest.param(CampaignConfig(2, 3), _all_short_on_the_last_left_basis,
                     36 * 120, 18 * 120, cpus, id=f"sweep-child-{cpus}")
        for cpus in (2, 3)])
    def test_first_fail_is_the_earliest(self, split, monkeypatch, config,
                                        shortfall, first, n_fail, cpus):
        monkeypatch.setattr(harness, "EXCEPTION_DEGREES", frozenset())
        if shortfall is not None:
            shortfall(monkeypatch)
        records = []
        serial = verify_theorem1(config, sink=records.append)  # one range
        fails = [i for i, r in enumerate(records) if r.status == "FAIL"]
        assert serial.n_fail == len(fails) == n_fail
        assert serial.first_fail == records[first] and fails[0] == first
        forks = split(cpus)
        assert verify_theorem1(config) == serial
        assert len(forks) == _forks_expected(config, cpus)

    @pytest.mark.parametrize("fail", [False, True])
    def test_only_a_failing_range_is_judged_again(self, split, monkeypatch,
                                                   fail):
        config = CampaignConfig(5, 5, mode="sample", sample_count=90, seed=1)
        if fail:
            records = []
            verify_theorem1(config, sink=records.append)
            # a conjugate sample in the third of three ranges
            target = next(r for r in records[60:] if r.conjugate)
            _force_counts(monkeypatch, Basis.parse(target.b1, 5),
                          Basis.parse(target.b2, 5), 24)
        parent = os.getpid()
        judged = []
        real = harness._sample_range

        def recording(config, result, sink, out, start, stop):
            if os.getpid() == parent:
                judged.append((start, stop))
            return real(config, result, sink, out, start, stop)

        monkeypatch.setattr(harness, "_sample_range", recording)
        forks = split(3)
        result = verify_theorem1(config)
        assert len(forks) == 2
        assert result.n_fail == fail
        assert judged == ([(0, 30), (60, 90)] if fail else [(0, 30)])

    def test_sink_gets_every_record_in_order(self, split):
        for config, count in (
                (CampaignConfig(5, 5, mode="sample", sample_count=64, seed=1),
                 64),
                (CampaignConfig(2, 3), 6480)):  # 54 pairs of 120 rows
            forks = split(3)
            records = []
            buf = io.StringIO()
            verify_theorem1(config, sink=records.append, out=buf)
            assert forks == []
            assert ([REPORT_HEADER] + [r.tsv_row() for r in records]
                    == buf.getvalue().splitlines())
            assert len(records) == count

    def test_no_fork_beside_other_threads(self, split):
        forks = split(3)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            reports = {}
            for mode, config in SMALL_CAMPAIGNS.items():
                buf = io.StringIO()
                verify_theorem1(config, out=buf)
                reports[mode] = buf.getvalue()
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert forks == []
        assert {mode: len(report.splitlines())
                for mode, report in reports.items()} == {
            "sample": 41, "sweep": 6481}
        assert reports == {mode: _one_range_campaign(config)[0]
                           for mode, config in SMALL_CAMPAIGNS.items()}

    @pytest.mark.parametrize("mode", SMALL_CAMPAIGNS)
    def test_no_fork_without_memfd_create(self, split, monkeypatch, mode):
        config = SMALL_CAMPAIGNS[mode]
        monkeypatch.delattr(os, "memfd_create")
        forks = split(3)
        buf = io.StringIO()
        assert verify_theorem1(config, out=buf) == (
            _one_range_campaign(config)[1])
        assert buf.getvalue() == _one_range_campaign(config)[0]
        assert forks == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("config,spool_rows", [
        (CampaignConfig(5, 5, mode="sample", sample_count=1000, seed=1), 100),
    ], ids=["5x5"])
    def test_rounds(self, split, monkeypatch, config, spool_rows, cpus):
        report, result = _one_range_campaign(config)
        monkeypatch.setattr(harness, "_SPOOL_ROWS", spool_rows)
        ranges = []  # of the children
        real = harness._fork_range

        def recording(config, children, spool, report, start, stop):
            ranges.append((start, stop))
            return real(config, children, spool, report, start, stop)

        monkeypatch.setattr(harness, "_fork_range", recording)
        forks = split(cpus)
        buf = io.StringIO()
        assert verify_theorem1(config, out=buf) == result
        assert buf.getvalue() == report
        assert len(forks) == len(ranges) >= 3 * (cpus - 1)
        assert forks.peak == cpus - 1
        assert max((stop - start for start, stop in ranges),
                   default=0) <= spool_rows

    def test_interrupt_kills_and_reaps_children(self, split, monkeypatch):
        parent = os.getpid()
        real = harness._emit

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(harness, "_emit", interrupted)
        config = CampaignConfig(5, 5, mode="sample", sample_count=300, seed=1)
        forks = split(3)
        with pytest.raises(KeyboardInterrupt):
            verify_theorem1(config, out=io.StringIO())
        assert len(forks) == 2

    @staticmethod
    def _second_range_judged_again(split, monkeypatch):
        """Run 20 3x3 samples on 2 CPUs and check that they give the report
        and result of one range, with samples 10 to 19 judged again here."""
        config = CampaignConfig(3, 3, mode="sample", sample_count=20, seed=1)
        report, result = _one_range_campaign(config)
        parent = os.getpid()
        judged = []
        real = harness._sample_range

        def recording(config, result, sink, out, start, stop):
            if os.getpid() == parent:
                judged.append((start, stop))
            return real(config, result, sink, out, start, stop)

        monkeypatch.setattr(harness, "_sample_range", recording)
        forks = split(2)
        buf = io.StringIO()
        assert verify_theorem1(config, out=buf) == result
        assert buf.getvalue() == report
        assert len(forks) == 1
        assert judged == [(0, 10), (10, 20)]

    def test_failed_child_range_is_judged_again(self, split, monkeypatch,
                                                capfd):
        parent = os.getpid()
        real = harness._emit

        def broken(*args):
            if os.getpid() != parent:
                raise ValueError("broken in a child")
            return real(*args)

        monkeypatch.setattr(harness, "_emit", broken)
        self._second_range_judged_again(split, monkeypatch)
        assert capfd.readouterr().err == ""  # the child prints nothing

    def test_killed_child_range_is_judged_again(self, split, monkeypatch):
        parent = os.getpid()
        real = harness._emit

        def killed(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(harness, "_emit", killed)
        self._second_range_judged_again(split, monkeypatch)

    def test_short_header_write_fails_the_child(self, split, monkeypatch):
        # a child whose tallies do not all reach its spool exits 1
        pwrite = os.pwrite
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: pwrite(
            fd, data[:-1], offset))
        self._second_range_judged_again(split, monkeypatch)

    def test_child_exception_is_raised_here(self, split, monkeypatch):
        config = CampaignConfig(5, 5, mode="sample", sample_count=100, seed=1)
        records = []
        verify_theorem1(config, sink=records.append)
        # on two CPUs a child judges samples 50 to 99, and sample 60's left
        # basis first appears there
        left = records[60].b1
        assert [i for i, r in enumerate(records) if r.b1 == left] == [60]
        real = harness._PairJudge

        def context(b1, b2, start=0):
            if str(b1) == left:
                raise ValueError(f"no context for {left}")
            return real(b1, b2, start)

        monkeypatch.setattr(harness, "_PairJudge", context)
        for cpus in (1, 2):
            forks = split(cpus)
            with pytest.raises(ValueError) as info:
                verify_theorem1(config)
            assert str(info.value) == f"no context for {left}"
            assert len(forks) == cpus - 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_split_campaigns_close_every_descriptor(self, split,
                                                    monkeypatch):
        parent = os.getpid()
        real = harness._emit
        config = CampaignConfig(3, 4, mode="sample", sample_count=100, seed=2)

        def open_descriptors():
            return sorted(os.listdir("/proc/self/fd"))

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args)

        def broken(*args):
            if os.getpid() != parent:
                raise ValueError("broken in a child")
            return real(*args)

        before = open_descriptors()
        split(3)
        verify_theorem1(config, out=io.StringIO())
        monkeypatch.setattr(harness, "_emit", broken)
        verify_theorem1(config, out=io.StringIO())
        monkeypatch.setattr(harness, "_emit", interrupted)
        with pytest.raises(KeyboardInterrupt):
            verify_theorem1(config, out=io.StringIO())
        monkeypatch.setattr(harness, "_emit", real)
        _pair_count_off_by_one(monkeypatch)
        with pytest.raises(TwoPathDisagreement):
            verify_theorem1(config, out=io.StringIO())
        assert open_descriptors() == before


class TestConnectivityCheck:
    def test_three_by_three(self):
        chk = verify_theorem2(3, 3)
        assert chk.total == 324
        assert chk.ok
        assert chk.mismatches == []

    def test_two_by_three(self):
        chk = verify_theorem2(2, 3)
        assert chk.total == 54
        assert chk.ok


class TestReproduce:
    def test_unknown_id(self):
        # the id is checked before the --m/--n rule
        for degrees in ({}, {"m": 3}):
            with pytest.raises(ValueError, match="^unknown reproduction id "
                               "'example-9.9'; known ids: example-1, "):
                reproduce("example-9.9", **degrees)

    def test_degrees_rejected_for_fixed_examples(self):
        with pytest.raises(ValueError):
            reproduce("example-1", m=3)

    def test_counts_are_judged_by_both_routes(self, monkeypatch):
        count = harness.pair_count
        monkeypatch.setattr(harness, "pair_count",
                            lambda *args: count(*args) - 1)
        with pytest.raises(TwoPathDisagreement) as info:
            reproduce("example-3.4")
        assert str(info.value) == (
            "Moore 16 vs pair route 15 on instance: 4\t4\t(0,1,2);(2,3)"
            "\t(1,3,2);(0,2,1,3)\tfalse\ttrue\t0,1\t0,1\tand\tfalse\t16"
            "\tFAIL")

    def test_prop1_needs_degrees(self):
        with pytest.raises(ValueError):
            reproduce("prop-1")
        with pytest.raises(ValueError):
            reproduce("prop-1", m=2, n=4)
        with pytest.raises(ValueError):
            reproduce("prop-1", m=3, n=7)

    @pytest.mark.parametrize("ident", [i for i in REPRODUCE_IDS
                                       if i != "prop-1"])
    def test_fixed_reports_match_golden(self, ident):
        assert reproduce(ident) == (GOLDEN / f"{ident}.txt").read_text()

    def test_prop1_matches_golden(self):
        got = reproduce("prop-1", m=3, n=4)
        assert got == (GOLDEN / "prop-1-m3-n4.txt").read_text()

    def test_prop1_same_degree_skips_second_witness(self):
        text = reproduce("prop-1", m=4, n=4)
        assert "right-same-shape: skipped (degrees equal)" in text
        assert "witness confirmed: true" in text

    def test_every_prop1_report_digest(self):
        # prop-1 at every m, n in 3..6, row-major: only m = 3, n = 4 has a
        # golden
        text = "".join(reproduce("prop-1", m=m, n=n)
                       for m in range(3, 7) for n in range(3, 7))
        assert len(text) == 5979
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "e867182b51f17b6cad304c4553048f42f715437c5924fb6d56180a8b8f1cf1cb")

    def test_reports_judge_each_basis_pair_once(self, monkeypatch):
        # The 21 reports (the fixed ids, and prop-1 at every m, n in 3..6)
        # print 274 counts on 34 basis pairs.  Each pair takes one judge,
        # which judges each {mask, ~mask} once: 169 Moore calls, where a
        # judge per instance made 274 of each.
        calls = collections.Counter()
        for name in ("_PairJudge", "moore_complexity"):
            def counting(*args, _real=getattr(harness, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(harness, name, counting)
        for ident in REPRODUCE_IDS:
            if ident != "prop-1":
                reproduce(ident)
        for m in range(3, 7):
            for n in range(3, 7):
                reproduce("prop-1", m=m, n=n)
        assert calls == {"_PairJudge": 34, "moore_complexity": 169}

    # example-2.2's non-conjugate pairs, example-3.4's 4x4 pair, the 3x4 pair
    # of TestPinnedInstances, which has EXCEPTION-EXPECTED rows, and a
    # conjugate 3x3 pair whose conjugator fixes state 0
    @pytest.mark.parametrize("b1,m,b2,n", [
        ("(0,1);(0,1)", 2, "(0,1);id", 2), ("(0,1);(0,1)", 2, "id;(0,1)", 2),
        ("(0,1);id", 2, "id;(0,1)", 2),
        ("(0,1,2);(2,3)", 4, "(1,3,2);(0,2,1,3)", 4),
        ("(0,1);(0,1,2)", 3, "(0,1);(1,3,2)", 4),
        ("(0,1,2);(0,1)", 3, "(0,2,1);(0,2)", 3),
    ])
    @pytest.mark.parametrize("short", [None, "every row", "below m*n"])
    def test_grouped_equals_per_instance(self, monkeypatch, b1, m, b2, n,
                                         short):
        # A report judges a pair on all of its combos on one judge;
        # evaluate_instance judges each combo on a judge of its own.  Both
        # give the same records, and with the pair route one state short
        # the same first disagreement.
        b1, b2 = Basis.parse(b1, m), Basis.parse(b2, n)
        if short == "every row":
            count = harness.pair_count
            monkeypatch.setattr(harness, "pair_count",
                                lambda *args: count(*args) - 1)
        elif short == "below m*n":
            _pair_count_off_by_one(monkeypatch)
        finals = [(f, g) for f in range(1, (1 << m) - 1)
                  for g in range(1, (1 << n) - 1)]
        ops = proper_functions()
        alone = []
        try:
            for f, g in finals:
                for op in ops:
                    alone.append(evaluate_instance(
                        b1, b2, mask_states(f, m), mask_states(g, n), op))
        except TwoPathDisagreement as exc:
            with pytest.raises(TwoPathDisagreement) as info:
                reproductions._judge(b1, b2, finals, ops)
            assert (info.value.row, info.value.moore,
                    info.value.pair_route) == (exc.row, exc.moore,
                                               exc.pair_route)
            return
        assert short is None  # every pair has rows below m*n
        grouped = reproductions._judge(b1, b2, finals, ops)
        assert [rec for records in grouped for rec in records] == alone
