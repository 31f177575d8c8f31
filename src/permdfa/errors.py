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
    """Two routes that judge an instance disagreed.

    Either the structural prediction disagreed with the Moore oracle, or the
    Moore and table-filling minimizers counted different state numbers; then
    table_filling holds the second count, else it is None. This should be
    impossible; it means a bug in one of the routes. The offending instance
    is kept in serialized form for replay.
    """

    def __init__(self, row: str, moore: int | None = None,
                 table_filling: int | None = None):
        self.row = row
        self.moore = moore
        self.table_filling = table_filling
        routes = ("prediction and oracle disagree" if table_filling is None
                  else f"Moore {moore} vs table-filling {table_filling}")
        super().__init__(f"{routes} on instance: {row}")
