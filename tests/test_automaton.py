"""DFA layer: construction, runs, semigroups, minimization, text format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdfa import (
    AutomatonFormatError,
    Basis,
    DFA,
    NotAPermutationError,
    Semiautomaton,
    accepts,
    distinguishability_complexity,
    equivalence_classes,
    Perm,
    format_cycles,
    from_basis,
    is_connected,
    minimize,
    parse_automaton_text,
    reachable_states,
    run,
    transition_semigroup,
)
from permdfa.automaton import moore_classes

B3 = Basis.parse("(0,1,2);(0,1)", 3)


def automaton_text(a):
    """The text format of an automaton whose letters act as permutations."""
    lines = [f"states {a.state_count}", "alphabet " + " ".join(a.alphabet)]
    for letter in a.alphabet:
        lines.append(f"trans {letter} {format_cycles(Perm(a.actions[letter]))}")
    lines.append(f"initial {a.initial}")
    if isinstance(a, DFA):
        lines.append("final" + "".join(f" {q}" for q in sorted(a.finals)))
    return "\n".join(lines) + "\n"


def random_dfa(rng, max_states=36, alphabet=("a", "b")):
    n = rng.randrange(1, max_states + 1)
    actions = {
        letter: tuple(rng.randrange(n) for _ in range(n))
        for letter in alphabet
    }
    k = rng.randrange(0, n + 1)
    finals = frozenset(rng.sample(range(n), k))
    return DFA(n, alphabet, actions, rng.randrange(n), finals)


class TestConstruction:
    def test_validates_action_cover(self):
        with pytest.raises(ValueError):
            Semiautomaton(2, ("a", "b"), {"a": (0, 1)})
        with pytest.raises(ValueError):
            Semiautomaton(2, ("a",), {"a": (0, 1), "b": (1, 0)})

    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            Semiautomaton(2, ("a",), {"a": (0, 2)})
        with pytest.raises(ValueError):
            Semiautomaton(2, ("a",), {"a": (0,)})
        with pytest.raises(ValueError):
            Semiautomaton(0, (), {})
        with pytest.raises(ValueError):
            Semiautomaton(2, ("a",), {"a": (0, 1)}, initial=2)

    def test_validates_letters(self):
        with pytest.raises(ValueError):
            Semiautomaton(1, ("a", "a"), {"a": (0,)})
        with pytest.raises(ValueError):
            Semiautomaton(1, ("a b",), {"a b": (0,)})
        with pytest.raises(ValueError, match="distinct"):
            Semiautomaton(3, ("a", "a"), {"a": B3.s.image})
        with pytest.raises(ValueError, match="bad letter"):
            Semiautomaton(3, ("a", "b c"),
                          {"a": B3.s.image, "b c": B3.t.image})

    def test_dfa_finals(self):
        d = DFA(2, ("a",), {"a": (1, 0)}, 0, {1})
        assert d.finals == frozenset({1})
        assert 0 < len(d.finals) < d.state_count
        with pytest.raises(ValueError):
            DFA(2, ("a",), {"a": (1, 0)}, 0, {2})

    def test_from_basis(self):
        a = from_basis(B3)
        assert a.state_count == 3
        assert a.alphabet == ("a", "b")
        assert a.actions["a"] == (1, 2, 0)
        assert a.actions["b"] == (1, 0, 2)
        a.require_permutations()
        assert from_basis(B3, initial=2).initial == 2
        # the basis's images come unchecked from the basis; the initial
        # state is still checked
        with pytest.raises(ValueError):
            from_basis(B3, initial=3)

    def test_permutation_check(self):
        a = Semiautomaton(2, ("a",), {"a": (0, 0)})
        with pytest.raises(NotAPermutationError):
            a.require_permutations()


class TestRuns:
    def test_word_applies_left_to_right(self):
        a = from_basis(B3)
        # a then b: 0 -a-> 1 -b-> 0
        assert run(a, "ab") == 0
        assert run(a, "ba") == 2
        assert run(a, "") == 0
        assert run(a, "ab", start=2) == run(a, "b", start=run(a, "a", start=2))

    def test_accepts(self):
        d = DFA(3, ("a", "b"), from_basis(B3).actions, 0, {0})
        assert accepts(d, "")
        assert accepts(d, "aaa")
        assert not accepts(d, "a")
        assert accepts(d, "bb")

    def test_unknown_letter(self):
        a = from_basis(B3)
        with pytest.raises(ValueError):
            run(a, "ax")


class TestReachability:
    def test_connected_automaton(self):
        a = from_basis(B3)
        assert reachable_states(a) == (0, 1, 2)
        assert is_connected(a)

    def test_disconnected(self):
        a = Semiautomaton(3, ("a",), {"a": (1, 0, 2)})
        assert reachable_states(a) == (0, 1)
        assert not is_connected(a)

    def test_connected_but_not_strongly(self):
        a = Semiautomaton(2, ("a",), {"a": (1, 1)})
        assert is_connected(a)
        # state 1 does not reach state 0
        assert reachable_states(
            Semiautomaton(2, ("a",), {"a": (1, 1)}, initial=1)) == (1,)

    def test_permutation_connected_iff_strongly(self):
        # exhaustive campaigns rely on this law to move the start state
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(1, 9)
            acts = {}
            for letter in ("a", "b"):
                img = list(range(n))
                rng.shuffle(img)
                acts[letter] = tuple(img)
            a = Semiautomaton(n, ("a", "b"), acts)
            strongly = all(
                len(reachable_states(Semiautomaton(n, ("a", "b"), acts, s))) == n
                for s in range(n))
            assert is_connected(a) == strongly


class TestTransitionSemigroup:
    def test_symmetric_group(self):
        sg = transition_semigroup(from_basis(B3))
        assert isinstance(sg, frozenset) and len(sg) == 6
        assert all(sorted(t) == [0, 1, 2] for t in sg)

    def test_non_group(self):
        a = Semiautomaton(2, ("a", "b"), {"a": (0, 0), "b": (1, 0)})
        sg = transition_semigroup(a)
        assert (0, 0) in sg
        # all four self-maps of a two point set arise here
        assert len(sg) == 4

    def test_identity_only_when_generated(self):
        # the empty word is excluded; identity appears iff some word acts as it
        a = Semiautomaton(3, ("a",), {"a": (1, 2, 0)})
        sg = transition_semigroup(a)
        assert (0, 1, 2) in sg
        assert len(sg) == 3


class TestMinimize:
    def test_already_minimal(self):
        d = DFA(3, ("a", "b"), from_basis(B3).actions, 0, {0})
        small, k = minimize(d)
        assert k == 3
        assert small.state_count == 3

    def test_collapses_unreachable(self):
        d = DFA(3, ("a",), {"a": (1, 0, 2)}, 0, {0})
        small, k = minimize(d)
        assert k == 2
        assert small.state_count == 2

    def test_collapses_equivalent(self):
        # two final sinks that behave identically
        d = DFA(4, ("a",), {"a": (1, 2, 3, 3)}, 0, {2, 3})
        small, k = minimize(d)
        assert k == 3

    def test_empty_language(self):
        d = DFA(4, ("a", "b"), from_basis(Basis.parse("(0,1,2,3);(0,1)", 4)).actions, 0, frozenset())
        small, k = minimize(d)
        assert k == 1
        assert small.finals == frozenset()

    def test_quotient_preserves_language(self):
        rng = random.Random(11)
        for _ in range(40):
            d = random_dfa(rng, max_states=8)
            small, k = minimize(d)
            assert small.state_count == k
            for _ in range(30):
                w = "".join(rng.choice("ab") for _ in range(rng.randrange(0, 10)))
                assert accepts(d, w) == accepts(small, w)

    def test_equivalence_classes_partition(self):
        d = DFA(3, ("a", "b"), from_basis(B3).actions, 0, {0, 1})
        classes = equivalence_classes(d)
        flat = sorted(q for cls in classes for q in cls)
        assert flat == list(reachable_states(d))

    def test_oracle_agreement_seeded(self):
        rng = random.Random(99)
        for _ in range(60):
            d = random_dfa(rng, max_states=20)
            assert minimize(d)[1] == distinguishability_complexity(d)


def get_then_insert_classes(actions, reachable, finals_mask, state_count):
    """moore_classes as it numbered a round's keys before setdefault: a
    lookup, then an insert for a new key."""
    cls = [finals_mask >> q & 1 for q in range(state_count)]
    k = -1
    while k < len(reachable):
        ids = {}
        new = [-1] * state_count
        for q in reachable:
            key = (cls[q], *[cls[act[q]] for act in actions])
            c = ids.get(key)
            if c is None:
                c = ids[key] = len(ids)
            new[q] = c
        if len(ids) == k:
            return new, k
        cls = new
        k = len(ids)
    return cls, k


class TestMooreClasses:
    @pytest.mark.parametrize("alphabet", [("a",), ("a", "b"), ("a", "b", "c")])
    def test_same_ids_as_get_then_insert(self, alphabet):
        # the whole id list, not only the count: minimize numbers its
        # states by these ids; letters need not be bijective, and the
        # initial state need not reach every state
        rng = random.Random(len(alphabet))
        partial = 0
        for _ in range(150):
            d = random_dfa(rng, max_states=24, alphabet=alphabet)
            reach = reachable_states(d)
            partial += len(reach) < d.state_count
            acts = [d.actions[letter] for letter in alphabet]
            mask = sum(1 << q for q in d.finals)
            assert moore_classes(acts, reach, mask, d.state_count) == (
                get_then_insert_classes(acts, reach, mask, d.state_count))
        assert partial > 30


class TestTextFormat:
    def test_round_trip_semiautomaton(self):
        a = from_basis(B3)
        text = automaton_text(a)
        back = parse_automaton_text(text)
        assert not isinstance(back, DFA)
        assert back.actions == a.actions
        assert back.alphabet == a.alphabet

    def test_round_trip_dfa(self):
        d = DFA(3, ("a", "b"), from_basis(B3).actions, 1, {0, 2})
        back = parse_automaton_text(automaton_text(d))
        assert isinstance(back, DFA)
        assert back.finals == d.finals
        assert back.initial == 1

    def test_comments_and_blanks(self):
        text = """
# a toy machine
states 2
alphabet a b
trans a (0,1)
trans b id   # swap nothing
initial 0
final 1
"""
        d = parse_automaton_text(text)
        assert isinstance(d, DFA)
        assert d.actions["a"] == (1, 0)
        assert d.actions["b"] == (0, 1)

    def test_missing_final_gives_semiautomaton(self):
        text = "states 2\nalphabet a\ntrans a (0,1)\ninitial 0\n"
        a = parse_automaton_text(text)
        assert not isinstance(a, DFA)

    @pytest.mark.parametrize("line,needle", [
        ("states 2\nstates 2\nalphabet a\ntrans a id\ninitial 0\n", "line 2"),
        ("states x\nalphabet a\ntrans a id\ninitial 0\n", "line 1"),
        ("states 2\nalphabet a\ntrans b id\ninitial 0\n", "line 3"),
        ("states 2\nalphabet a\ntrans a (0,2)\ninitial 0\n", "line 3"),
        ("states 2\nalphabet a\ntrans a id\ninitial 5\n", "line 4"),
        ("states 2\nalphabet a\ntrans a id\ninitial 0\nfinal 7\n", "line 5"),
        ("states 2\nalphabet a\ntrans a id\ninitial 0\nbogus 1\n", "line 5"),
    ])
    def test_errors_carry_line_numbers(self, line, needle):
        with pytest.raises(AutomatonFormatError) as err:
            parse_automaton_text(line)
        assert needle in str(err.value)

    # Every message, with the line it names (None when no line has the
    # fault); OK is a valid body that each case edits.
    OK = "states 2\nalphabet a b\ntrans a (0,1)\ntrans b id\ninitial 0\n"

    @pytest.mark.parametrize("text,message,line", [
        ("states 2\n" + OK, "duplicate states line", 2),
        ("states 2 3\n", "states needs a single count", 1),
        ("states x\n", "states needs a single count", 1),
        ("states 0\n", "need at least one state", 1),
        (OK + "alphabet a\n", "duplicate alphabet line", 6),
        ("states 2\nalphabet\n", "alphabet needs at least one letter", 2),
        ("alphabet a b a\n", "alphabet letters must be distinct", 1),
        ("states 2\ntrans a\n", "trans needs a letter and a permutation",
         2),
        (OK + "initial 1\n", "duplicate initial line", 6),
        ("initial 0\n" + OK, "duplicate initial line", 6),
        ("initial 0 1\n", "initial needs a single state", 1),
        ("initial x\n", "initial needs a single state", 1),
        (OK + "final 1\nfinal 0\n", "duplicate final line", 7),
        ("final 1 x\n", "bad final state 'x'", 1),
        (OK + "bogus 1\n", "unknown key 'bogus'", 6),
        ("bogus 1\nbogus 1\n", "unknown key 'bogus'", 1),
        ("", "missing states line", None),
        ("alphabet a\ninitial 0\n", "missing states line", None),
        ("states 2\ninitial 0\n", "missing alphabet line", None),
        ("states 2\nalphabet a\ntrans a id\nfinal 1\n",
         "missing initial line", None),
        ("initial 2\n" + OK.replace("initial 0\n", ""),
         "initial state 2 out of range", 1),
        (OK + "trans c id\n", "trans names unknown letter 'c'", 6),
        (OK + "trans a id\n", "duplicate trans line for 'a'", 6),
        ("states 2\nalphabet a\ntrans a (0,2)\ninitial 0\n",
         "point 2 is out of range for degree 2", 3),
        ("states 2\nalphabet a\ntrans a (0,0)\ninitial 0\n",
         "point 0 appears twice", 3),
        ("states 2\nalphabet a b\ntrans a id\ninitial 0\n",
         "missing trans line for letter 'b'", None),
        ("final 0 2\n" + OK, "final state 2 out of range", 1),
        (OK + "final 0 5\n", "final state 5 out of range", 6),
    ])
    def test_error_message_and_line(self, text, message, line):
        with pytest.raises(AutomatonFormatError) as err:
            parse_automaton_text(text)
        assert err.value.line == line
        assert str(err.value) == (message if line is None
                                  else f"line {line}: {message}")

    def test_missing_sections(self):
        with pytest.raises(AutomatonFormatError):
            parse_automaton_text("states 2\nalphabet a\ninitial 0\n")
        with pytest.raises(AutomatonFormatError):
            parse_automaton_text("")
        # initial has no default
        with pytest.raises(AutomatonFormatError, match="missing initial line"):
            parse_automaton_text(
                "states 3\nalphabet a b\ntrans a (0,1,2)\ntrans b (0,1)\n"
                "final 0 1\n")

    @settings(max_examples=30)
    @given(st.integers(2, 6), st.integers(0, 10 ** 9))
    def test_random_round_trip(self, n, seed):
        rng = random.Random(seed)
        acts = {}
        for letter in ("a", "b"):
            img = list(range(n))
            rng.shuffle(img)
            acts[letter] = tuple(img)
        finals = {q for q in range(n) if rng.random() < 0.5}
        d = DFA(n, ("a", "b"), acts, rng.randrange(n), finals)
        back = parse_automaton_text(automaton_text(d))
        assert isinstance(back, DFA)
        assert back.actions == d.actions
        assert back.finals == d.finals
        assert back.initial == d.initial
