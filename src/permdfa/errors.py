"""Shared exception types."""


class NotAPermutationError(ValueError):
    """An image sequence or letter action is not a bijection on its state set."""


class DegreeMismatchError(ValueError):
    """Operands act on point sets of different sizes."""


class CycleFormatError(ValueError):
    """Cycle-notation text is malformed, out of range, or repeats an index."""


class AutomatonFormatError(ValueError):
    """Automaton text is malformed; knows the offending line when there is one."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class CapExceededError(RuntimeError):
    """A computation was asked past a fixed limit: generating-pair
    enumeration above MAX_ENUMERATION_DEGREE, or an exhaustive sweep above
    EXHAUSTIVE_BUDGET instances."""


class TwoPathDisagreement(RuntimeError):
    """The Moore oracle and the pair route (product.pair_count), which count
    the exact states of every campaign row, gave moore and pair_route on the
    instance of the TSV row kept for replay: a bug in one of the routes."""

    def __init__(self, row: str, moore: int, pair_route: int):
        self.row = row
        self.moore = moore
        self.pair_route = pair_route
        super().__init__(f"Moore {moore} vs pair route {pair_route}"
                         f" on instance: {row}")
