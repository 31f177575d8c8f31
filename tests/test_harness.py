"""Campaign engine: enumeration, judging, sampling, reports, reproduction."""

import bisect
import collections
import hashlib
import io
import random
from functools import lru_cache
from pathlib import Path

import pytest

from permdfa import Basis, BoolFn, CapExceededError, TwoPathDisagreement
from permdfa import Perm, bases_conjugate, conjugate, harness
from permdfa.perm import conjugation_orbits
from permdfa.automaton import finals_to_mask
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
        assert res.conjugate_attained is True
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
        assert res.conjugate_attained is True

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

    def test_final_set_validation(self):
        with pytest.raises(ValueError):
            evaluate_instance(self.B34_LEFT, self.B34_RIGHT, [], [0],
                              BoolFn.by_name("and"))
        with pytest.raises(ValueError):
            evaluate_instance(self.B34_LEFT, self.B34_RIGHT, [0, 1, 2], [0],
                              BoolFn.by_name("and"))


@lru_cache(maxsize=None)
def _unreduced_records(m, n, ops):
    """Every exhaustive instance in stream order, each judged by
    evaluate_instance, which builds a fresh pair context per instance and
    so reuses no verdict of another mask or another basis pair."""
    records = []
    for b1 in enumerate_bases(m):
        for b2 in enumerate_bases(n):
            for fmask in range(1, (1 << m) - 1):
                left = [i for i in range(m) if fmask >> i & 1]
                for gmask in range(1, (1 << n) - 1):
                    right = [j for j in range(n) if gmask >> j & 1]
                    for op in ops:
                        records.append(evaluate_instance(
                            b1, b2, left, right, op))
    return records


def _evaluate_row(row):
    """The report row evaluate_instance gives for the instance of a row."""
    f = row.split("\t")
    m, n = int(f[0]), int(f[1])
    return evaluate_instance(
        Basis.parse(f[2], m), Basis.parse(f[3], n),
        [int(x) for x in f[6].split(",")], [int(x) for x in f[7].split(",")],
        BoolFn.parse(f[8])).tsv_row()


# Exhaustive 2x3 with all ten operations, and 3x3 with and and xor, which
# covers the conjugate (disconnected) branch.
UNREDUCED_SWEEPS = [(2, 3, ()), (3, 3, ("and", "xor"))]


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
        # the 3x4 pair of TestPinnedInstances, which has shortfalls
        pairs = {3: (TestPinnedInstances.B34_LEFT,),
                 4: (TestPinnedInstances.B34_RIGHT,)}
        monkeypatch.setattr(harness, "enumerate_bases", pairs.__getitem__)
        return CampaignConfig(3, 4)

    @pytest.fixture
    def sampled(self):
        # sampled 3x4 whose first shortfall is sample 33
        return CampaignConfig(3, 4, mode="sample", sample_count=100, seed=2)

    @pytest.mark.parametrize("campaign", ["one_pair", "sampled"])
    def test_table_filling_disagreement_aborts(self, campaign, request,
                                               monkeypatch):
        config = request.getfixturevalue(campaign)
        real = harness.distinguishability_complexity
        monkeypatch.setattr(harness, "distinguishability_complexity",
                            lambda d: real(d) - 1)
        buf = io.StringIO()
        with pytest.raises(TwoPathDisagreement) as info:
            verify_theorem1(config, out=buf)
        row = info.value.row.split("\t")
        assert int(row[10]) < 12 and row[11] == "FAIL"
        assert buf.getvalue().splitlines()[-1] == info.value.row
        moore = info.value.moore
        assert moore == int(row[10])
        assert info.value.table_filling == moore - 1
        assert str(info.value).startswith(
            f"Moore {moore} vs table-filling {moore - 1} on instance: ")

    @pytest.mark.parametrize("campaign", ["one_pair", "sampled"])
    def test_prediction_disagreement_names_routes(self, campaign, request,
                                                  monkeypatch):
        config = request.getfixturevalue(campaign)
        monkeypatch.setattr(harness, "all_distinguished",
                            lambda components, flat: False)
        with pytest.raises(TwoPathDisagreement) as info:
            verify_theorem1(config)
        row = info.value.row.split("\t")
        assert row[9:] == ["false", "12", "FAIL"]
        assert (info.value.moore, info.value.table_filling) == (12, None)
        assert str(info.value).startswith(
            "prediction and oracle disagree on instance: ")

    def test_table_filling_runs_once_per_shortfall_mask(
            self, one_pair, monkeypatch):
        counts = []
        real = harness.distinguishability_complexity

        def recording(d):
            counts.append(real(d))
            return counts[-1]

        monkeypatch.setattr(harness, "distinguishability_complexity",
                            recording)
        rows = []
        res = verify_theorem1(one_pair, sink=rows.append)
        assert res.ok and res.total == 840
        assert counts and all(c < 12 for c in counts)
        full = (1 << 12) - 1
        shortfall_masks = set()
        for r in rows:
            if r.oracle < 12:
                flat = flat_final_mask(r.op, finals_to_mask(r.finals_left),
                                       3, finals_to_mask(r.finals_right), 4)
                shortfall_masks.add(min(flat, flat ^ full))
        assert len(counts) == len(shortfall_masks)

    def test_full_complexity_skips_table_filling(self, monkeypatch):
        def forbidden(d):
            raise AssertionError("table filling ran on an m*n row")

        monkeypatch.setattr(harness, "distinguishability_complexity",
                            forbidden)
        res = verify_theorem1(CampaignConfig(2, 3))
        assert res.n_pass == res.total == 6480


class _RowPicker:
    """A report stream that keeps only the rows at the wanted indices
    (0 is the first row after the header); writes hold whole rows."""

    def __init__(self, wanted):
        self.wanted = sorted(wanted)
        self.rows = {}
        self.next = -1  # the header

    def write(self, text):
        count = text.count("\n")
        start, self.next = self.next, self.next + count
        k = bisect.bisect_left(self.wanted, start)
        if k < len(self.wanted) and self.wanted[k] < self.next:
            for index, row in enumerate(text.splitlines(), start):
                if index in self.wanted:
                    self.rows[index] = row


class _DigestStream:
    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("ascii"))


class TestOrbitReduction:
    """Exhaustive campaigns judge one basis pair per S_m x S_n relabelling
    orbit and give every other connected pair its representative's verdicts.
    TestComplementMemo.test_rows_equal_unmemoized_rows compares every row
    of exhaustive 2x3 and 3x3 with evaluate_instance, the unreduced
    reference."""

    @pytest.mark.parametrize("degree,orbits,size", [
        (2, 3, 1), (3, 3, 6), (4, 9, 24)])
    def test_orbit_structure(self, degree, orbits, size):
        bases = enumerate_bases(degree)
        table = conjugation_orbits(bases)
        members = collections.defaultdict(list)
        for basis, (rep, r) in zip(bases, table):
            members[rep].append(basis)
            assert table[rep] == (rep, Perm.identity(degree))
            assert basis == Basis(conjugate(r, bases[rep].s),
                                  conjugate(r, bases[rep].t))
            if degree >= 3:
                assert bases_conjugate(bases[rep], basis) == r
        assert sorted(map(len, members.values())) == [size] * orbits
        # a representative comes first in its orbit
        assert all(group[0] is bases[rep] for rep, group in members.items())

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
        assert res.conjugate_attained == (
            any(r.oracle == n for r in conj) if conj else None)
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
        left = conjugation_orbits(enumerate_bases(3))
        right = conjugation_orbits(enumerate_bases(4))
        per_pair = 6 * 14 * 10
        pairs = [i * len(right) + j
                 for i in range(len(left)) for j in range(len(right))
                 if (left[i][0], right[j][0]) != (i, j)]
        rng = random.Random(5)
        wanted = {rng.choice(pairs) * per_pair + rng.randrange(per_pair)
                  for _ in range(500)}
        picker = _RowPicker(wanted)
        res = verify_theorem1(CampaignConfig(3, 4), out=picker)
        assert res.total == picker.next == 3265920
        assert sorted(picker.rows) == sorted(wanted)
        for row in picker.rows.values():
            assert _evaluate_row(row) == row

    def test_one_judgement_per_orbit(self, monkeypatch):
        calls = collections.Counter()
        for name in ("moore_complexity", "pair_graph"):
            def counting(*args, _real=getattr(harness, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(harness, name, counting)
        res = verify_theorem1(CampaignConfig(
            3, 4, ops=(BoolFn.by_name("xor"), BoolFn.by_name("xnor"))))
        assert res.total == 653184
        # 27 representative pairs, 21 masks up to complement each
        assert calls == {"moore_complexity": 567, "pair_graph": 27}

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


class TestSampling:
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
        with pytest.raises(ValueError):
            reproduce("example-9.9")

    def test_degrees_rejected_for_fixed_examples(self):
        with pytest.raises(ValueError):
            reproduce("example-1", m=3)

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
