"""Value semantics of the package's record classes: construction, defaults,
repr, equality, hashing and which of them are frozen."""

import pytest

from permdfa.boolops import BoolFn
from permdfa.harness import (
    CampaignConfig,
    CampaignResult,
    ConnectivityCheck,
    VerificationRecord,
)
from permdfa.product import ComponentLabel, PairGraph

XOR = BoolFn(6, "xor")
CONFIG = CampaignConfig(3, 4)
RECORD = VerificationRecord(3, 4, "b1", "b2", False, True, (0,), (1, 2), XOR,
                            True, 12, "PASS")

# class: (field names in order, positional arguments, one other valid value
# per field, or None where no valid value differs in that field alone: a
# campaign's mode fixes whether its sample count may be 0)
CASES = {
    BoolFn: (("table", "name"), (6, "xor"), (9, "xnor")),
    ComponentLabel: (("kind", "exact"), ("C1", True), ("C2", False)),
    PairGraph: (
        ("left_count", "right_count", "vertices", "components"),
        (2, 2, ((0, 1),), (((0, 1),),)),
        (3, 3, ((0, 2),), (((0, 2),),))),
    CampaignConfig: (
        ("m", "n", "mode", "sample_count", "seed", "ops", "output"),
        (3, 3, "sample", 5, 7, (XOR,), "out.tsv"),
        (4, 4, None, 6, 8, (BoolFn(1, "and"),), "other.tsv")),
    VerificationRecord: (
        ("m", "n", "b1", "b2", "conjugate", "connected", "finals_left",
         "finals_right", "op", "predicted", "oracle", "status"),
        (3, 4, "b1", "b2", False, True, (0,), (1, 2), XOR, True, 12, "PASS"),
        (4, 5, "c1", "c2", True, False, (1,), (0,), BoolFn(1), False, 6,
         "FAIL")),
    CampaignResult: (
        ("config", "total", "n_pass", "n_fail", "n_exception", "n_conjugate",
         "below_mn", "first_fail"),
        (CONFIG, 1, 2, 3, 4, 5, 6, RECORD),
        (CampaignConfig(2, 2), 7, 8, 9, 10, 11, 12, None)),
    ConnectivityCheck: (
        ("total", "mismatches"), (3, [("a", "b", True, False)]), (4, [])),
}
FROZEN = (BoolFn, ComponentLabel, PairGraph, CampaignConfig)

REPRS = [
    (XOR, "BoolFn(table=6, name='xor')"),
    (BoolFn(1), "BoolFn(table=1, name=None)"),
    (ComponentLabel("C1", True), "ComponentLabel(kind='C1', exact=True)"),
    (PairGraph(1, 2, ((0, 1),), (((0, 1),),)),
     "PairGraph(left_count=1, right_count=2, vertices=((0, 1),),"
     " components=(((0, 1),),))"),
    (CONFIG,
     "CampaignConfig(m=3, n=4, mode='exhaustive', sample_count=0, seed=0,"
     " ops=(), output=None)"),
    (CampaignConfig(3, 3, "sample", 5, 7, (BoolFn(1, "and"),), "x.tsv"),
     "CampaignConfig(m=3, n=3, mode='sample', sample_count=5, seed=7,"
     " ops=(BoolFn(table=1, name='and'),), output='x.tsv')"),
    (RECORD,
     "VerificationRecord(m=3, n=4, b1='b1', b2='b2', conjugate=False,"
     " connected=True, finals_left=(0,), finals_right=(1, 2),"
     " op=BoolFn(table=6, name='xor'), predicted=True, oracle=12,"
     " status='PASS')"),
    (CampaignResult(CONFIG),
     "CampaignResult(config=CampaignConfig(m=3, n=4, mode='exhaustive',"
     " sample_count=0, seed=0, ops=(), output=None), total=0, n_pass=0,"
     " n_fail=0, n_exception=0, n_conjugate=0, below_mn=0, first_fail=None)"),
    (ConnectivityCheck(3, [("a", "b", True, False)]),
     "ConnectivityCheck(total=3, mismatches=[('a', 'b', True, False)])"),
]


@pytest.mark.parametrize("value,text", REPRS)
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
class TestValueSemantics:
    def test_positional_and_keyword_construction(self, cls):
        names, args, _ = CASES[cls]
        value = cls(*args)
        assert [getattr(value, name) for name in names] == list(args)
        assert cls(**dict(zip(names, args))) == value

    def test_equal_values(self, cls):
        _, args, _ = CASES[cls]
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and not a != b
        if cls in FROZEN:
            assert hash(a) == hash(b)

    def test_one_field_differs(self, cls):
        names, args, others = CASES[cls]
        for i, name in enumerate(names):
            if others[i] is None:
                continue
            changed = list(args)
            changed[i] = others[i]
            assert cls(*args) != cls(*changed), name

    def test_frozen_or_mutable(self, cls):
        names, args, _ = CASES[cls]
        value = cls(*args)
        if cls in FROZEN:
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(value, name, getattr(value, name))
        elif cls is CampaignResult:
            value.total = 99
            assert value.total == 99 and value != cls(*args)


def test_defaults():
    assert BoolFn(6) == BoolFn(6, None) and BoolFn(6).name is None
    assert CONFIG == CampaignConfig(3, 4, "exhaustive", 0, 0, (), None)
    assert (CONFIG.mode, CONFIG.sample_count, CONFIG.seed, CONFIG.ops,
            CONFIG.output) == ("exhaustive", 0, 0, (), None)
    assert CampaignConfig(3, 3, mode="sample", sample_count=2) == \
        CampaignConfig(3, 3, "sample", 2, 0, (), None)
    fresh = CampaignResult(CONFIG)
    assert fresh == CampaignResult(CONFIG, 0, 0, 0, 0, 0, 0, None)
    assert (fresh.total, fresh.n_pass, fresh.n_fail, fresh.n_exception,
            fresh.n_conjugate, fresh.below_mn, fresh.first_fail) == \
        (0, 0, 0, 0, 0, 0, None)
    assert fresh.ok


def test_campaign_result_tallies_add_in_place():
    result = CampaignResult(CONFIG)
    result._add((5, 3, 1, 1, 0, 2))
    assert result == CampaignResult(CONFIG, total=5, n_pass=3, n_fail=1,
                                    n_exception=1, n_conjugate=0, below_mn=2)
    assert not result.ok
    assert result.summary() == ("summary: total=5 pass=3"
                                " exception-expected=1 fail=1 conjugate=0")


def test_bool_fn_range_message():
    for table in (16, -1):
        with pytest.raises(ValueError) as err:
            BoolFn(table)
        assert str(err.value) == f"truth table must be in 0..15, got {table}"


@pytest.mark.parametrize("kwargs,message", [
    ({"m": 2, "n": 3, "ops": (BoolFn(0b0011),)},
     "'0011' depends on at most one argument;"
     " campaigns only cover proper operations"),
    ({"m": 1, "n": 3}, "component automata need at least 2 states"),
    ({"m": 3, "n": 1}, "component automata need at least 2 states"),
    ({"m": 2, "n": 2, "mode": "randomized"}, "unknown mode 'randomized'"),
    ({"m": 2, "n": 2, "mode": "sample"},
     "sampled mode needs a positive sample count"),
    ({"m": 2, "n": 2, "seed": 5},
     "seed and sample count only apply to sampled mode"),
    ({"m": 2, "n": 2, "sample_count": 7},
     "seed and sample count only apply to sampled mode"),
    ({"m": 2, "n": 2, "mode": "sample", "sample_count": 1, "seed": -1},
     "seed must be in 0..2^64-1, got -1"),
    ({"m": 2, "n": 2, "mode": "sample", "sample_count": 1, "seed": 1 << 64},
     f"seed must be in 0..2^64-1, got {1 << 64}"),
])
def test_campaign_config_messages(kwargs, message):
    with pytest.raises(ValueError) as err:
        CampaignConfig(**kwargs)
    assert str(err.value) == message


def test_tsv_row_can_be_rebound(monkeypatch):
    # a tracer rebinds the class attribute to time every call
    calls = []
    original = VerificationRecord.tsv_row

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(VerificationRecord, "tsv_row", counted)
    assert RECORD.tsv_row() == (
        "3\t4\tb1\tb2\tfalse\ttrue\t0\t1,2\txor\ttrue\t12\tPASS")
    assert calls == [RECORD]
