"""Exception types shared across the library.

The CLI maps these onto exit codes: bad input -> 2, exhausted budgets -> 3.
Certification failures are not exceptions; certifiers return reports with a
pass flag so callers can inspect both numbers.
"""


class DisclabError(Exception):
    """Base class for all library errors."""


class InputError(DisclabError, ValueError):
    """Malformed or out-of-contract input (dimensions, ranges, formats)."""


class DimensionMismatchError(InputError):
    """Operands whose shapes do not line up."""


class CapExceededError(DisclabError):
    """A configured search or construction budget would be exceeded.

    Raised before the work starts: by an exact search whose unpruned tree
    would have more than 2^cap leaves (`solvers.check_search`), and by a
    Hadamard or stacked construction beyond its size caps. Signals the
    caller to either raise the cap or fall back to a heuristic.
    """


class VerificationError(DisclabError):
    """An internal consistency check that is guaranteed by construction failed.

    Raising this indicates a bug, not bad input.
    """
