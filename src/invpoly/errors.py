"""Exception types shared across the library and the CLI, one per way to fail.

Each class states the exit code the CLI ends with when it is raised, as
``exit_code``; the CLI catches InvpolyError in one place and exits with
that code.  Any other exception is a bug and ends in a traceback.
"""


class InvpolyError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class InputError(InvpolyError, ValueError):
    """Malformed input: bad h-sequence, bad pair set, bad JSON, or order
    relations with a cycle."""

    exit_code = 3


class InadmissibleSetError(InvpolyError):
    """A set is not h-admissible: a route was asked for it, or it is a
    nonempty set with no descent pair, which has no maximum descent m."""

    exit_code = 2


class BoundExceededError(InvpolyError):
    """A brute-force enumeration was requested above the configured cap."""

    exit_code = 4


class BelowValidityFloorError(InvpolyError):
    """A closed-form expansion was evaluated below the n where it counts.

    The polynomial is still well defined there; use the raw evaluator if
    you want its value as a polynomial rather than as a count.
    """

    exit_code = 3


class RouteDisagreementError(InvpolyError):
    """Two independent routes to the same quantity gave different answers.

    The routes are equivalent by theorem, so this is a bug in one of them.
    """

    exit_code = 5
