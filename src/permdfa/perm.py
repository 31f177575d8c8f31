"""Permutations of {0, ..., n-1}, cycle notation, and generating pairs of S_n.

This module also holds the two search loops the package shares: the
point-orbit BFS (_point_orbit) behind reachability and transitivity, and
the element closure (_closure_images) behind generated groups, the
generation test, transition semigroups and the product group.

Composition is right-to-left throughout this module: compose(p, q) applies q
first, so compose(p, q)(i) == p(q(i)). Words over an automaton alphabet act
left to right instead; that convention lives in automaton.py and the two are
never mixed.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    CapExceededError,
    CycleFormatError,
    DegreeMismatchError,
    NotAPermutationError,
)

# Default element cap for group closures; enough for every subgroup of S_8.
DEFAULT_CLOSURE_CAP = math.factorial(8)

# Generating pairs are found by testing all (n!)^2 ordered pairs.
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
        return _image_is_even(self.image)

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))


def compose(p: Perm, q: Perm) -> Perm:
    """The permutation applying q first, then p: compose(p, q)(i) == p(q(i))."""
    if p.degree != q.degree:
        raise DegreeMismatchError(f"cannot compose degree {p.degree} with degree {q.degree}")
    pi = p.image
    return Perm(tuple(map(pi.__getitem__, q.image)))


def inverse(p: Perm) -> Perm:
    return p.inverse()


def conjugate(r: Perm, g: Perm) -> Perm:
    """r * g * r^-1, which relabels every point i of g's cycles as r(i)."""
    if r.degree != g.degree:
        raise DegreeMismatchError(f"cannot conjugate degree {g.degree} by degree {r.degree}")
    ri, gi = r.image, g.image
    out = [0] * len(ri)
    for i in range(len(ri)):
        out[ri[i]] = ri[gi[i]]
    return Perm(out)


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
    parts = ["(" + ",".join(map(str, cyc)) + ")" for cyc in p.cycles()]
    return "".join(parts) or "id"


def _point_orbit(actions: Sequence[Sequence[int]], start: int, size: int) -> bytearray:
    """BFS over points 0..size-1 under the maps: seen[q] is 1 exactly when
    some sequence of maps carries start to q."""
    seen = bytearray(size)
    seen[start] = 1
    frontier = [start]
    while frontier:
        step = []
        for q in frontier:
            for act in actions:
                v = act[q]
                if not seen[v]:
                    seen[v] = 1
                    step.append(v)
        frontier = step
    return seen


def _closure_images(
    images: list[tuple[int, ...]],
    seed: Iterable[tuple[int, ...]],
    cap: Optional[int] = None,
    stop_above: Optional[int] = None,
) -> set[tuple[int, ...]]:
    """BFS closure of the seed under composition with the image tuples.

    Seeded with the identity this is the generated group; seeded with the
    generators it is the semigroup of nonempty products.
    """
    elements = set(seed)
    if cap is not None and len(elements) > cap:
        raise CapExceededError(f"closure exceeded cap of {cap}")
    frontier = list(elements)
    while frontier:
        step = []
        for x in frontier:
            for g in images:
                y = tuple(map(x.__getitem__, g))
                if y not in elements:
                    elements.add(y)
                    if cap is not None and len(elements) > cap:
                        raise CapExceededError(f"closure exceeded cap of {cap}")
                    if stop_above is not None and len(elements) > stop_above:
                        return elements
                    step.append(y)
        frontier = step
    return elements


class GroupClosure:
    """The subgroup generated by some permutations, with its generators kept."""

    __slots__ = ("degree", "generators", "elements")

    def __init__(self, degree: int, generators: tuple[Perm, ...], elements: frozenset[Perm]):
        self.degree = degree
        self.generators = generators
        self.elements = elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __contains__(self, p: object) -> bool:
        return p in self.elements

    def __repr__(self) -> str:
        gens = ", ".join(format_cycles(g) for g in self.generators)
        return f"<GroupClosure degree={self.degree} order={len(self.elements)} gens=[{gens}]>"


def _generator_images(gens: tuple[Perm, ...]) -> tuple[list[tuple[int, ...]], int]:
    """The generators' image tuples and their shared degree."""
    if not gens:
        raise ValueError("at least one generator is required")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise DegreeMismatchError("generators must share a degree")
    return [g.image for g in gens], degree


def generate_group(gens: Iterable[Perm], cap: Optional[int] = None) -> GroupClosure:
    """Close the generators under composition; error if the cap is exceeded."""
    gens = tuple(gens)
    images, degree = _generator_images(gens)
    if cap is None:
        cap = DEFAULT_CLOSURE_CAP
    elements = _closure_images(images, [tuple(range(degree))], cap=cap)
    return GroupClosure(degree, gens, frozenset(Perm(t) for t in elements))


def _image_is_even(image: Sequence[int]) -> bool:
    """Parity of a permutation's image tuple: the degree minus the number of
    cycles, fixed points included, is even."""
    seen = bytearray(len(image))
    cycles = 0
    for start in range(len(image)):
        if not seen[start]:
            cycles += 1
            q = start
            while not seen[q]:
                seen[q] = 1
                q = image[q]
    return (len(image) - cycles) % 2 == 0


def _images_generate_symmetric(images: list[tuple[int, ...]], degree: int) -> bool:
    """Whether the image tuples generate S_degree, decided exactly.

    All generators even: the group lies in A_n. Not transitive: it is not
    S_n. Otherwise the group has an odd element, so it is not A_n, and every
    other proper subgroup of S_n has at most (n-1)! elements for n >= 5,
    since A_n is the only proper subgroup of index below n (Dixon and
    Mortimer, Permutation Groups, 5.2). The same bound holds at n = 2 and 3;
    at n = 4 it is 8, the order of D_4. The closure stops past the bound.
    """
    if degree <= 1:
        return True
    if all(map(_image_is_even, images)):
        return False
    if _point_orbit(images, 0, degree).count(1) < degree:
        return False
    bound = 8 if degree == 4 else math.factorial(degree - 1)
    return len(_closure_images(images, [tuple(range(degree))], stop_above=bound)) > bound


def generates_symmetric(gens: Iterable[Perm]) -> bool:
    """Whether the generators' closure is the full symmetric group."""
    return _images_generate_symmetric(*_generator_images(tuple(gens)))


def acts_transitively(gens: Iterable[Perm]) -> bool:
    """Whether the generated group has a single orbit on points."""
    images, degree = _generator_images(tuple(gens))
    return _point_orbit(images, 0, degree).count(1) == degree


def acts_doubly_transitively(gens: Iterable[Perm]) -> bool:
    """Single orbit on ordered pairs of distinct points; degree must be >= 2."""
    images, degree = _generator_images(tuple(gens))
    if degree < 2:
        raise ValueError("double transitivity needs at least two points")
    # The pair (a, b) is the point a * degree + b.
    pair_actions = [
        [g[a] * degree + g[b] for a in range(degree) for b in range(degree)]
        for g in images
    ]
    orbit = _point_orbit(pair_actions, 1, degree * degree)
    return orbit.count(1) == degree * (degree - 1)


class Basis:
    """An ordered pair of permutations of one degree that generates S_n.

    Generation is checked at construction. Distinctness of the two components
    is optional and off by default; at n = 2 the pair (s, s) with s the
    transposition still generates and is accepted.
    """

    __slots__ = ("s", "t")

    def __init__(self, s: Perm, t: Perm, *, require_distinct: bool = False):
        if s.degree != t.degree:
            raise DegreeMismatchError("basis components must share a degree")
        if require_distinct and s == t:
            raise ValueError("basis components must be distinct")
        if not _images_generate_symmetric([s.image, t.image], s.degree):
            raise ValueError(
                f"{format_cycles(s)};{format_cycles(t)} does not generate the "
                f"symmetric group on {s.degree} points"
            )
        self.s = s
        self.t = t

    @classmethod
    def parse(cls, text: str, degree: int, *, require_distinct: bool = False) -> "Basis":
        """Parse "S;T" where S and T are cycle expressions at the degree."""
        parts = text.split(";")
        if len(parts) != 2:
            raise CycleFormatError("a basis is two cycle expressions joined by ';'")
        return cls(
            parse_cycles(parts[0], degree),
            parse_cycles(parts[1], degree),
            require_distinct=require_distinct,
        )

    @property
    def degree(self) -> int:
        return self.s.degree

    def conjugated(self, r: Perm) -> "Basis":
        """r*B*r^-1, componentwise. Conjugation is an automorphism of S_n,
        so the image of a generating pair generates too and the generation
        test is not run again."""
        out = object.__new__(Basis)
        out.s = conjugate(r, self.s)
        out.t = conjugate(r, self.t)
        return out

    def __iter__(self) -> Iterator[Perm]:
        yield self.s
        yield self.t

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
    the one with the smallest anchor, is returned.
    """
    if b1.degree != b2.degree:
        raise DegreeMismatchError("bases of different degrees are never conjugate")
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


def conjugation_orbits(bases: Sequence[Basis]) -> list[tuple[int, Perm]]:
    """(index of its orbit's first basis, r) for each of the bases, with
    basis == r * first * r^-1, for S_n acting on the listed bases by
    conjugation.

    The first basis of an orbit carries the identity. Conjugates missing from
    the list are skipped. Below degree 3 a basis can have several such r;
    the lexicographically first is kept.
    """
    index = {(b.s.image, b.t.image): i for i, b in enumerate(bases)}
    table: list = [None] * len(bases)
    for i, first in enumerate(bases):
        if table[i] is None:
            for r in map(Perm, itertools.permutations(range(first.degree))):
                j = index.get((conjugate(r, first.s).image,
                               conjugate(r, first.t).image))
                if j is not None and table[j] is None:
                    table[j] = (i, r)
    return table


def generating_pairs(n: int, allow_equal: bool) -> Iterator[Basis]:
    """Every ordered pair (s, t) with <s, t> = S_n, lexicographic by image
    tuples; pairs with s == t only when allow_equal is set."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_ENUMERATION_DEGREE:
        raise CapExceededError(
            f"generating-pair enumeration is limited to degree {MAX_ENUMERATION_DEGREE}")
    perms = [Perm(p) for p in itertools.permutations(range(n))]
    for s in perms:
        for t in perms:
            if s is t and not allow_equal:
                continue
            try:
                basis = Basis(s, t)
            except ValueError:
                continue
            yield basis


def count_generating_pairs(n: int, allow_equal: bool = False) -> int:
    """Count ordered pairs (s, t) with <s, t> = S_n by plain enumeration."""
    return sum(1 for _ in generating_pairs(n, allow_equal))
