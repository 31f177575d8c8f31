"""The sixteen binary boolean functions, indexed by 4-bit truth tables.

A table is an integer 0..15 whose bits, most significant first, are
f(0,0), f(0,1), f(1,0), f(1,1). So "0110" (= 6) is symmetric difference and
"0001" (= 1) is intersection. Reports always carry the 4-bit string.
"""

from collections import namedtuple

# The ten proper functions by their conventional names. "diff" is x and not y,
# "rdiff" the reverse; "impl" is x implies y, "rimpl" the reverse.
NAMED_TABLES = {
    "and": 0b0001,
    "diff": 0b0010,
    "rdiff": 0b0100,
    "xor": 0b0110,
    "or": 0b0111,
    "nor": 0b1000,
    "xnor": 0b1001,
    "rimpl": 0b1011,
    "impl": 0b1101,
    "nand": 0b1110,
}

_NAME_BY_TABLE = {table: name for name, table in NAMED_TABLES.items()}

# Improper tables: the two constants and the four that ignore one argument.
_IMPROPER = frozenset({0b0000, 0b0011, 0b0101, 0b1010, 0b1100, 0b1111})

# One representative per complexity class of proper functions: union,
# intersection, symmetric difference, and the two one-sided differences.
# The other five proper functions are their complements.
CANONICAL_TABLES = (0b0001, 0b0010, 0b0100, 0b0110, 0b0111)


class BoolFn(namedtuple("BoolFn", ("table", "name"), defaults=(None,))):
    """A binary boolean function given by its 4-bit truth table (an int),
    with an optional name (a str or None)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.table <= 15:
            raise ValueError(f"truth table must be in 0..15, got {self.table}")
        return self

    @classmethod
    def by_name(cls, name: str) -> "BoolFn":
        try:
            return cls(NAMED_TABLES[name], name)
        except KeyError:
            raise ValueError(f"unknown operation name {name!r}") from None

    @classmethod
    def by_table(cls, table: int) -> "BoolFn":
        return cls(table, _NAME_BY_TABLE.get(table))

    @classmethod
    def parse(cls, text: str) -> "BoolFn":
        """Accept a name like "xor" or a 4-bit string like "0110"."""
        if text in NAMED_TABLES:
            return cls.by_name(text)
        if len(text) == 4 and set(text) <= {"0", "1"}:
            return cls.by_table(int(text, 2))
        raise ValueError(f"not an operation name or 4-bit table: {text!r}")

    def __call__(self, x: bool, y: bool) -> bool:
        return bool((self.table >> (3 - 2 * int(x) - int(y))) & 1)

    def bits(self) -> str:
        return format(self.table, "04b")

    def label(self) -> str:
        return self.name if self.name is not None else self.bits()

    def __str__(self) -> str:
        return self.label()


def is_proper(f: BoolFn) -> bool:
    """True when f is not constant and depends on both arguments."""
    return f.table not in _IMPROPER


def proper_functions() -> tuple[BoolFn, ...]:
    """The ten proper functions in ascending table order."""
    return tuple(BoolFn.by_table(t) for t in range(16) if t not in _IMPROPER)
