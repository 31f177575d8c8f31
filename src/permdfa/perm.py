"""Permutations of {0, ..., n-1}, cycle notation, and generating pairs of S_n.

This module also holds the two search loops the package shares: the
point-orbit BFS (_point_orbit) behind reachability and transitivity, and
the element closure (_closure_images) behind the generation test and
transition semigroups, which composes through one operator.itemgetter per
generator. The generation test (_images_generate_symmetric) rejects by
parity, transitivity and primitivity and accepts by Jordan's theorem on
prime cycles; the closure is its exact fallback. What the package
reads of a permutation's cycles (parity, Jordan certificate, cycle type and
cycle text) comes from one bounded cache per image tuple, _cycle_facts,
shared by the generation test, format_cycles and bases_conjugate.

Composition is right-to-left throughout this module: compose(p, q) applies q
first, so compose(p, q)(i) == p(q(i)). Words over an automaton alphabet act
left to right instead; that convention lives in automaton.py and the two are
never mixed.
"""

import itertools
import math
import re
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    CapExceededError,
    CycleFormatError,
    DegreeMismatchError,
    NotAPermutationError,
)

# Generating pairs are found by scanning all (n!)^2 ordered pairs.
MAX_ENUMERATION_DEGREE = 5


class Perm:
    """A permutation of {0, ..., n-1}, stored as its tuple of images."""

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]):
        img = tuple(image)
        n = len(img)
        seen = [False] * n
        for v in img:
            if not isinstance(v, int) or v < 0 or v >= n or seen[v]:
                raise NotAPermutationError(f"not a permutation of 0..{n - 1}: {img!r}")
            seen[v] = True
        self.image = img

    @classmethod
    def _trusted(cls, image: tuple[int, ...]) -> "Perm":
        """A permutation from an image tuple already known to be a bijection,
        unchecked."""
        out = object.__new__(cls)
        out.image = image
        return out

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, point: int) -> int:
        return self.image[point]

    def __mul__(self, other: "Perm") -> "Perm":
        return compose(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"Perm({list(self.image)!r})"

    def __str__(self) -> str:
        return format_cycles(self)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v] = i
        return Perm(inv)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest point, ascending."""
        out = []
        seen = [False] * len(self.image)
        for start in range(len(self.image)):
            if seen[start] or self.image[start] == start:
                seen[start] = True
                continue
            cyc = []
            q = start
            while not seen[q]:
                seen[q] = True
                cyc.append(q)
                q = self.image[q]
            out.append(tuple(cyc))
        return tuple(out)

    def is_even(self) -> bool:
        return _cycle_facts(self.image).even

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))


def compose(p: Perm, q: Perm) -> Perm:
    """The permutation applying q first, then p: compose(p, q)(i) == p(q(i))."""
    if p.degree != q.degree:
        raise DegreeMismatchError(f"cannot compose degree {p.degree} with degree {q.degree}")
    pi = p.image
    return Perm(tuple(map(pi.__getitem__, q.image)))


def conjugate(r: Perm, g: Perm) -> Perm:
    """r * g * r^-1, which relabels every point i of g's cycles as r(i)."""
    if r.degree != g.degree:
        raise DegreeMismatchError(f"cannot conjugate degree {g.degree} by degree {r.degree}")
    ri, gi = r.image, g.image
    out = [0] * len(ri)
    for i in range(len(ri)):
        out[ri[i]] = ri[gi[i]]
    return Perm._trusted(tuple(out))


_CYCLE_TOKEN = re.compile(r"\d+|id|[(),]|\S")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation such as "(0,1,2)(3,4)" or "id" at the given degree.

    Whitespace is ignored. Cycles need at least two points, points are decimal
    integers below the degree, and no point may appear twice.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    tokens = _CYCLE_TOKEN.findall(text)
    if not tokens:
        raise CycleFormatError("empty permutation text")
    if tokens == ["id"]:
        return Perm.identity(degree)
    image = list(range(degree))
    used: set[int] = set()
    pos = 0
    while pos < len(tokens):
        if tokens[pos] != "(":
            raise CycleFormatError(f"expected '(' but found {tokens[pos]!r}")
        pos += 1
        entries: list[int] = []
        while True:
            if pos >= len(tokens):
                raise CycleFormatError("unterminated cycle")
            tok = tokens[pos]
            if not tok.isdigit():
                raise CycleFormatError(f"expected a point but found {tok!r}")
            point = int(tok)
            if point >= degree:
                raise CycleFormatError(f"point {point} is out of range for degree {degree}")
            if point in used:
                raise CycleFormatError(f"point {point} appears twice")
            used.add(point)
            entries.append(point)
            pos += 1
            if pos >= len(tokens):
                raise CycleFormatError("unterminated cycle")
            if tokens[pos] == ",":
                pos += 1
                continue
            if tokens[pos] == ")":
                pos += 1
                break
            raise CycleFormatError(f"expected ',' or ')' but found {tokens[pos]!r}")
        if len(entries) < 2:
            raise CycleFormatError("a cycle needs at least two points")
        for a, b in zip(entries, entries[1:]):
            image[a] = b
        image[entries[-1]] = entries[0]
    return Perm(image)


def format_cycles(p: Perm) -> str:
    """Disjoint-cycle text, fixed points omitted; the identity prints as "id"."""
    return _cycle_facts(p.image).text


def _conjugator_text(r: Optional[Perm]) -> str:
    """A conjugator found by bases_conjugate, or "none" when there is none."""
    return format_cycles(r) if r is not None else "none"


def _point_orbit(actions: Sequence[Sequence[int]], start: int, size: int) -> bytearray:
    """BFS over points 0..size-1 under the maps: seen[q] is 1 exactly when
    some sequence of maps carries start to q."""
    seen = bytearray(size)
    seen[start] = 1
    queue = [start]
    for q in queue:
        for act in actions:
            v = act[q]
            if not seen[v]:
                seen[v] = 1
                queue.append(v)
    return seen


def _closure_images(
    images: list[tuple[int, ...]],
    seed: Iterable[tuple[int, ...]],
    stop_above: Optional[int] = None,
    stop_at: Optional[Callable[[tuple[int, ...]], bool]] = None,
) -> Optional[set[tuple[int, ...]]]:
    """BFS closure of the seed under composition with the image tuples.

    Seeded with the generators this is the semigroup of nonempty products,
    which for permutations is the generated group; the generation test adds
    the identity to the seed. The closure stops early and returns None once
    it holds more than stop_above elements, or once it meets a new element y
    with stop_at(y).
    """
    elements = set(seed)
    frontier = list(elements)
    # x composed with g is itemgetter(*g)(x), except on one point, where
    # itemgetter returns the item and every map is the identity
    compose = [itemgetter(*g) if len(g) > 1 else tuple for g in images]
    while frontier:
        step = []
        for x in frontier:
            for g in compose:
                y = g(x)
                if y not in elements:
                    elements.add(y)
                    if stop_above is not None and len(elements) > stop_above:
                        return None
                    if stop_at is not None and stop_at(y):
                        return None
                    step.append(y)
        frontier = step
    return elements


@lru_cache(maxsize=None)
def _is_prime(k: int) -> bool:
    return k >= 2 and all(k % d for d in range(2, math.isqrt(k) + 1))


@lru_cache(maxsize=None)
def _jordan_primes(degree: int) -> frozenset[int]:
    """The primes p for which a primitive group of the degree that contains
    a p-cycle contains A_n: p = 2, p = 3 and every prime p <= degree - 3."""
    return frozenset(p for p in range(2, max(4, degree - 2)) if _is_prime(p))


_CycleFacts = namedtuple("_CycleFacts", ("even", "certificate", "cycle_type", "text"))


@lru_cache(maxsize=1024)
def _cycle_facts(image: tuple[int, ...]) -> _CycleFacts:
    """What the package reads of a permutation's cycles, from one walk of
    them.

    even: the degree minus the number of cycles, fixed points included, is
    even. certificate: some power of the permutation is a p-cycle with p in
    _jordan_primes, that is, exactly one cycle length is a multiple of p and
    it is p itself. cycle_type: the cycle lengths, fixed points included,
    ascending. text: what format_cycles returns. Cached, because at small
    degrees the same permutations recur across draws, tests and rows; 1024
    entries hold every permutation of degree 6.
    """
    cycles = Perm._trusted(image).cycles()
    lengths = list(map(len, cycles))
    moved = sum(lengths)
    certificate = False
    for p in _jordan_primes(len(image)).intersection(lengths):
        if [k % p for k in lengths].count(0) == 1:
            certificate = True
            break
    # a cycle's text is its tuple's text without the spaces
    return _CycleFacts((moved - len(cycles)) % 2 == 0, certificate,
                       (1,) * (len(image) - moved) + tuple(sorted(lengths)),
                       "".join(map(str, cycles)).replace(" ", "") or "id")


def _is_primitive(images: Sequence[Sequence[int]], degree: int) -> bool:
    """Whether a transitive group on the points is primitive.

    For each b != 0, Atkinson's propagation builds the finest partition
    that joins 0 and b and that every generator maps to itself: a union-find
    that, for each joined pair (x, y) and generator g, joins g(x) and g(y).
    The partition is a block system, so the group is primitive exactly when
    every such partition has a single class. O(n^2) per b.
    """
    for b in range(1, degree):
        root = list(range(degree))
        root[b] = 0
        joined = 1
        pending = [(0, b)]
        while pending and joined < degree - 1:
            x, y = pending.pop()
            for g in images:
                u, v = g[x], g[y]
                while root[u] != u:
                    u = root[u]
                while root[v] != v:
                    v = root[v]
                if u != v:
                    root[v] = u
                    joined += 1
                    pending.append((u, v))
        if joined < degree - 1:
            return False
    return True


def _images_generate_symmetric(images: Sequence[Sequence[int]], degree: int) -> bool:
    """Whether the image tuples generate S_degree, decided exactly.

    The stages run in order:

    1. All generators even: the group lies in A_n. Reject.
    2. Not transitive: reject.
    3. Imprimitive (_is_primitive): reject. A transitive group of prime
       degree is primitive, so this stage is skipped there.
    4. The group is now primitive and has an odd element. By Jordan's
       theorem (Wielandt, Finite Permutation Groups, 13.9; Dixon and
       Mortimer, Permutation Groups, 3.3E) a primitive group containing a
       cycle of prime length p, with p <= 3 or p <= n-3, contains A_n, so
       this one is S_n. An element has such a cycle among its powers when
       it has a Jordan certificate (_cycle_facts).
       Accept when a generator has one, or else when the closure meets an
       element that has one.
    5. Without a certificate the closure runs on to an exact bound. A group
       with an odd element is not A_n, and every other proper subgroup of
       S_n has at most (n-1)! elements for n >= 5, since A_n is the only
       proper subgroup of index below n (Dixon and Mortimer, 5.2). The same
       bound holds at n = 2 and 3; at n = 4 it is 8, the order of D_4.
       The group is S_n exactly when the closure passes the bound.
    """
    if degree <= 1:
        return True
    gens = [tuple(g) for g in images]
    facts = [_cycle_facts(g) for g in gens]
    if all(f.even for f in facts):
        return False
    if _point_orbit(gens, 0, degree).count(1) < degree:
        return False
    if not _is_prime(degree) and not _is_primitive(gens, degree):
        return False
    if any(f.certificate for f in facts):
        return True
    bound = 8 if degree == 4 else math.factorial(degree - 1)
    return _closure_images(gens, [tuple(range(degree)), *gens], stop_above=bound,
                           stop_at=lambda y: _cycle_facts(y).certificate) is None


def generates_symmetric(gens: Iterable[Perm]) -> bool:
    """Whether the generators' closure is the full symmetric group."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("at least one generator is required")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise DegreeMismatchError("generators must share a degree")
    return _images_generate_symmetric([g.image for g in gens], degree)


class Basis:
    """An ordered pair of permutations of one degree that generates S_n.

    Generation is checked at construction. The components may be equal: at
    n = 2 the pair (s, s) with s the transposition still generates.
    """

    __slots__ = ("s", "t")

    def __init__(self, s: Perm, t: Perm):
        if s.degree != t.degree:
            raise DegreeMismatchError("basis components must share a degree")
        if not _images_generate_symmetric([s.image, t.image], s.degree):
            raise ValueError(
                f"{format_cycles(s)};{format_cycles(t)} does not generate the "
                f"symmetric group on {s.degree} points"
            )
        self.s = s
        self.t = t

    @classmethod
    def parse(cls, text: str, degree: int) -> "Basis":
        """Parse "S;T" where S and T are cycle expressions at the degree."""
        parts = text.split(";")
        if len(parts) != 2:
            raise CycleFormatError("a basis is two cycle expressions joined by ';'")
        return cls(parse_cycles(parts[0], degree), parse_cycles(parts[1], degree))

    @classmethod
    def _trusted(cls, s: Perm, t: Perm) -> "Basis":
        """A basis from a pair already known to generate S_n, unchecked."""
        out = object.__new__(cls)
        out.s = s
        out.t = t
        return out

    @property
    def degree(self) -> int:
        return self.s.degree

    def conjugated(self, r: Perm) -> "Basis":
        """r*B*r^-1, componentwise. Conjugation is an automorphism of S_n,
        so the image of a generating pair generates too and the generation
        test is not run again."""
        return Basis._trusted(conjugate(r, self.s), conjugate(r, self.t))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Basis) and self.s == other.s and self.t == other.t

    def __hash__(self) -> int:
        return hash((self.s, self.t))

    def __str__(self) -> str:
        return f"{format_cycles(self.s)};{format_cycles(self.t)}"

    def __repr__(self) -> str:
        return f"Basis.parse({str(self)!r}, {self.degree})"


def bases_conjugate(b1: Basis, b2: Basis) -> Optional[Perm]:
    """A single r with r*s1*r^-1 == s2 and r*t1*r^-1 == t2, or None.

    Both components must be moved by the same r. Because <s1, t1> is
    transitive, r is fixed by r(0): each anchor r(0) = a is extended along
    both generators, r(s1(q)) = s2(r(q)) and r(t1(q)) = t2(r(q)), and kept
    when every such equation holds and r is a bijection. That is n anchors of
    O(n) work each. A generating pair has trivial centralizer for degree
    >= 3, so the conjugator is then unique; that uniqueness is verified
    rather than assumed. At degree 2 the lexicographically first conjugator,
    the one with the smallest anchor, is returned. Conjugation keeps cycle
    type, so bases whose s or whose t differ in it are not searched.
    """
    if b1.degree != b2.degree:
        raise DegreeMismatchError("bases of different degrees are never conjugate")
    if (_cycle_facts(b1.s.image).cycle_type != _cycle_facts(b2.s.image).cycle_type
            or _cycle_facts(b1.t.image).cycle_type != _cycle_facts(b2.t.image).cycle_type):
        return None
    n = b1.degree
    moves = ((b1.s.image, b2.s.image), (b1.t.image, b2.t.image))
    found: Optional[list[int]] = None
    for anchor in range(n):
        r = [-1] * n
        r[0] = anchor
        stack = [0]
        consistent = True
        while stack and consistent:
            q = stack.pop()
            for g1, g2 in moves:
                v, want = g1[q], g2[r[q]]
                if r[v] < 0:
                    r[v] = want
                    stack.append(v)
                elif r[v] != want:
                    consistent = False
        if not consistent or sorted(r) != list(range(n)):
            continue
        if found is not None:
            if n >= 3:
                raise AssertionError("conjugator of a basis must be unique at degree >= 3")
            break
        found = r
    return None if found is None else Perm(found)


@lru_cache(maxsize=None)
def basis_orbits(n: int) -> tuple[tuple[Basis, int, Perm], ...]:
    """Every ordered pair (s, t) with <s, t> = S_n, lexicographic by image
    tuples, as (basis, index of its orbit's first basis, r) with
    basis == r * first * r^-1, for S_n acting on the pairs by conjugation.

    The scan meets an orbit at its first pair, which alone takes the
    generation test: conjugation is an automorphism of S_n. Each conjugate
    keeps the first r in itertools.permutations order, the identity for the
    first pair; below degree 3 a basis has several. Pairs with s == t are
    kept only at degree 2, where (s, s) with s the transposition generates;
    degree 1 has none, although (id, id) generates S_1 trivially.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_ENUMERATION_DEGREE:
        raise CapExceededError(
            f"generating-pair enumeration is limited to degree {MAX_ENUMERATION_DEGREE}")
    perms = [Perm._trusted(p) for p in itertools.permutations(range(n))]
    # each r with the image tuple of r * g * r^-1 for every image tuple g
    relabellings = [(r, {g.image: conjugate(r, g).image for g in perms})
                    for r in perms]
    seen: dict = {}  # (s, t) images -> (first, r), or None if not generating
    table = []
    for s in perms:
        for t in perms:
            if s is t and n != 2:
                continue
            key = (s.image, t.image)
            if key not in seen:
                first = len(table) if _images_generate_symmetric(key, n) else None
                for r, conjugates in relabellings:
                    image = (conjugates[s.image], conjugates[t.image])
                    if image not in seen:
                        seen[image] = None if first is None else (first, r)
            orbit = seen[key]
            if orbit is not None:
                table.append((Basis._trusted(s, t), *orbit))
    return tuple(table)
