"""Complete deterministic automata whose letters act by total maps on states.

Words act left to right: run(a, "xy") applies x first, then y. Nothing at this
level requires letters to act bijectively; operations that do need that (the
pair-graph machinery in product.py) check it themselves.
"""

from typing import Iterable, Optional, Sequence

from .errors import AutomatonFormatError, CycleFormatError, NotAPermutationError
from .perm import _closure_images, _point_orbit, parse_cycles


class Semiautomaton:
    """States 0..n-1, an ordered alphabet, one total letter action each, and
    an initial state."""

    __slots__ = ("state_count", "alphabet", "actions", "initial")

    def __init__(
        self,
        state_count: int,
        alphabet: Sequence[str],
        actions: dict[str, Sequence[int]],
        initial: int = 0,
    ):
        if state_count < 1:
            raise ValueError("need at least one state")
        letters = tuple(alphabet)
        if not letters:
            raise ValueError("alphabet must not be empty")
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet letters must be distinct")
        for letter in letters:
            if not letter or any(c.isspace() for c in letter) or "#" in letter:
                raise ValueError(f"bad letter {letter!r}")
        if set(actions) != set(letters):
            raise ValueError("actions must cover exactly the alphabet")
        fixed: dict[str, tuple[int, ...]] = {}
        for letter in letters:
            act = tuple(actions[letter])
            if len(act) != state_count:
                raise ValueError(f"action for {letter!r} must list {state_count} images")
            for v in act:
                if not isinstance(v, int) or not 0 <= v < state_count:
                    raise ValueError(f"action for {letter!r} leaves the state set: {v!r}")
            fixed[letter] = act
        if not 0 <= initial < state_count:
            raise ValueError(f"initial state {initial} out of range")
        self.state_count = state_count
        self.alphabet = letters
        self.actions = fixed
        self.initial = initial

    def step(self, state: int, letter: str) -> int:
        try:
            act = self.actions[letter]
        except KeyError:
            raise ValueError(f"unknown letter {letter!r}") from None
        return act[state]

    def require_permutations(self) -> None:
        for letter, act in self.actions.items():
            if len(set(act)) != self.state_count:
                raise NotAPermutationError(f"letter {letter!r} does not act bijectively")


class DFA(Semiautomaton):
    """A semiautomaton plus a set of final states.

    Empty and full final sets are allowed; they make the language trivial
    (complexity 1).
    """

    __slots__ = ("finals",)

    def __init__(self, state_count, alphabet, actions, initial, finals: Iterable[int]):
        super().__init__(state_count, alphabet, actions, initial)
        fset = frozenset(finals)
        for q in fset:
            if not isinstance(q, int) or not 0 <= q < state_count:
                raise ValueError(f"final state {q!r} out of range")
        self.finals = fset


def from_basis(basis, initial: int = 0) -> Semiautomaton:
    """The semiautomaton whose letter a acts as s and letter b as t, built
    and checked like any other."""
    return Semiautomaton(basis.degree, ("a", "b"),
                         {"a": basis.s.image, "b": basis.t.image}, initial)


def run(a: Semiautomaton, word: Iterable[str], start: Optional[int] = None) -> int:
    """Apply the word's letters left to right and return the ending state."""
    state = a.initial if start is None else start
    if not 0 <= state < a.state_count:
        raise ValueError(f"start state {state} out of range")
    for letter in word:
        state = a.step(state, letter)
    return state


def accepts(d: DFA, word: Iterable[str]) -> bool:
    return run(d, word) in d.finals


def reachable_states(a: Semiautomaton) -> tuple[int, ...]:
    """All states reachable from the initial state, ascending."""
    acts = [a.actions[letter] for letter in a.alphabet]
    seen = _point_orbit(acts, a.initial, a.state_count)
    return tuple(q for q in range(a.state_count) if seen[q])


def is_connected(a: Semiautomaton) -> bool:
    return len(reachable_states(a)) == a.state_count


def transition_semigroup(a: Semiautomaton) -> frozenset[tuple[int, ...]]:
    """All transformations induced by nonempty words, as image tuples."""
    gens = [a.actions[letter] for letter in a.alphabet]
    # Each closure step puts one more letter in front of a word, which
    # reaches every nonempty word.
    return frozenset(_closure_images(gens, gens))


def moore_classes(
    actions: Sequence[Sequence[int]],
    reachable: Sequence[int],
    finals_mask: int,
    state_count: int,
) -> tuple[list[int], int]:
    """Moore refinement over the reachable states.

    Returns a list mapping each state to its class id, -1 where unreachable,
    and the number of classes. Class ids follow first occurrence along
    ascending states, so id order is smallest-member order.
    """
    # The final bits are round 0's classes; k = -1 makes the first round
    # run, and it turns them into first-occurrence ids.
    cls = [finals_mask >> q & 1 for q in range(state_count)]
    k = -1
    nreach = len(reachable)
    # Two letters get their own key: the generic one is slower per call.
    a0, a1 = actions if len(actions) == 2 else (None, None)
    while k < nreach:
        ids: dict = {}
        new = [-1] * state_count
        for q in reachable:
            if a0 is None:
                key = (cls[q], *[cls[act[q]] for act in actions])
            else:
                key = (cls[q], cls[a0[q]], cls[a1[q]])
            # a new key takes the next id: len(ids) is read before the insert
            new[q] = ids.setdefault(key, len(ids))
        if len(ids) == k:
            return new, k
        cls = new
        k = len(ids)
    return cls, k


def moore_complexity(
    actions: Sequence[Sequence[int]],
    reachable: Sequence[int],
    finals_mask: int,
    state_count: int,
) -> int:
    """Class count of moore_classes, for callers that only need the number."""
    return moore_classes(actions, reachable, finals_mask, state_count)[1]


def finals_to_mask(finals: Iterable[int] | int) -> int:
    """Final states as a bit mask, bit q for state q; a mask passes through."""
    if isinstance(finals, int):
        return finals
    mask = 0
    for q in finals:
        mask |= 1 << q
    return mask


def mask_states(mask: int, count: int) -> tuple[int, ...]:
    """The states 0..count-1 whose bits are set in mask, ascending."""
    return tuple(q for q in range(count) if mask >> q & 1)


def _moore(d: DFA):
    """d's reachable states, letter actions, finals mask, Moore classes and
    class count."""
    reach = reachable_states(d)
    acts = [d.actions[letter] for letter in d.alphabet]
    mask = finals_to_mask(d.finals)
    return (reach, acts, mask,
            *moore_classes(acts, reach, mask, d.state_count))


def minimize(d: DFA) -> tuple[DFA, int]:
    """The minimal DFA of d's language and its state complexity.

    Unreachable states are removed first, then Moore refinement merges
    equivalent ones. Classes are renumbered by smallest original state,
    ascending.
    """
    reach, acts, mask, cls, k = _moore(d)
    reps = [-1] * k
    for q in reach:
        if reps[cls[q]] < 0:
            reps[cls[q]] = q
    new_actions = {
        letter: tuple(cls[act[reps[c]]] for c in range(k))
        for letter, act in zip(d.alphabet, acts)
    }
    new_finals = frozenset(c for c in range(k) if (mask >> reps[c]) & 1)
    quotient = DFA(k, d.alphabet, new_actions, cls[d.initial], new_finals)
    return quotient, k


def equivalence_classes(d: DFA) -> tuple[tuple[int, ...], ...]:
    """The partition of reachable states into language-equivalence classes,
    ordered by smallest member."""
    reach, _, _, cls, k = _moore(d)
    groups: list[list[int]] = [[] for _ in range(k)]
    for q in reach:
        groups[cls[q]].append(q)
    return tuple(tuple(g) for g in groups)


def distinguishability_complexity(d: DFA) -> int:
    """State complexity computed again by the table-filling pair oracle.

    Deliberately a second, independent implementation: it never shares code
    with moore_classes and is used to cross-check it.  At the fixed point
    the unmarked pairs (p, q), p < q, are exactly the equivalent pairs, and
    every state but the smallest of its class is the q of one of them.
    """
    reach = list(reachable_states(d))
    finals = d.finals
    acts = [d.actions[letter] for letter in d.alphabet]
    marked: set[tuple[int, int]] = set()
    unmarked: list[tuple[int, int]] = []
    for i, p in enumerate(reach):
        for q in reach[i + 1 :]:
            if (p in finals) != (q in finals):
                marked.add((p, q))
            else:
                unmarked.append((p, q))
    changed = True
    while changed:
        changed = False
        still = []
        for p, q in unmarked:
            for act in acts:
                x, y = act[p], act[q]
                if x > y:
                    x, y = y, x
                if (x, y) in marked:
                    marked.add((p, q))
                    changed = True
                    break
            else:
                still.append((p, q))
        unmarked = still
    return len(reach) - len({q for _, q in unmarked})


# ---------------------------------------------------------------------------
# Text format. Line-oriented, '#' starts a comment, keys are
# states / alphabet / trans / initial / final; final is optional.

def parse_automaton_text(text: str) -> Semiautomaton | DFA:
    """Parse the line format into a Semiautomaton, or a DFA when a final line
    is present. Strict: unknown keys, duplicates, missing parts and bad
    indices all raise AutomatonFormatError with the line number."""
    lines: dict[str, int] = {}  # the line of each key but trans
    states: Optional[int] = None
    alphabet: Optional[tuple[str, ...]] = None
    initial: Optional[int] = None
    finals: Optional[list[int]] = None
    trans: dict[str, tuple[int, ...]] = {}
    pending_trans: list[tuple[int, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key = fields[0]
        if key in lines:
            raise AutomatonFormatError(f"duplicate {key} line", lineno)
        if key != "trans":
            lines[key] = lineno
        if key == "states":
            if len(fields) != 2 or not fields[1].isdigit():
                raise AutomatonFormatError("states needs a single count", lineno)
            states = int(fields[1])
            if states < 1:
                raise AutomatonFormatError("need at least one state", lineno)
        elif key == "alphabet":
            if len(fields) < 2:
                raise AutomatonFormatError("alphabet needs at least one letter", lineno)
            alphabet = tuple(fields[1:])
            if len(set(alphabet)) != len(alphabet):
                raise AutomatonFormatError("alphabet letters must be distinct", lineno)
        elif key == "trans":
            if len(fields) < 3:
                raise AutomatonFormatError("trans needs a letter and a permutation", lineno)
            pending_trans.append((lineno, fields[1], "".join(fields[2:])))
        elif key == "initial":
            if len(fields) != 2 or not fields[1].isdigit():
                raise AutomatonFormatError("initial needs a single state", lineno)
            initial = int(fields[1])
        elif key == "final":
            for tok in fields[1:]:
                if not tok.isdigit():
                    raise AutomatonFormatError(f"bad final state {tok!r}", lineno)
            finals = [int(tok) for tok in fields[1:]]
        else:
            raise AutomatonFormatError(f"unknown key {key!r}", lineno)

    for key in ("states", "alphabet", "initial"):
        if key not in lines:
            raise AutomatonFormatError(f"missing {key} line")
    if not 0 <= initial < states:
        raise AutomatonFormatError(f"initial state {initial} out of range", lines["initial"])

    for lineno, letter, expr in pending_trans:
        if letter not in alphabet:
            raise AutomatonFormatError(f"trans names unknown letter {letter!r}", lineno)
        if letter in trans:
            raise AutomatonFormatError(f"duplicate trans line for {letter!r}", lineno)
        try:
            trans[letter] = parse_cycles(expr, states).image
        except CycleFormatError as e:
            raise AutomatonFormatError(str(e), lineno) from None
    for letter in alphabet:
        if letter not in trans:
            raise AutomatonFormatError(f"missing trans line for letter {letter!r}")

    if finals is not None:
        for q in finals:
            if q >= states:
                raise AutomatonFormatError(f"final state {q} out of range", lines["final"])
        return DFA(states, alphabet, trans, initial, finals)
    return Semiautomaton(states, alphabet, trans, initial)

