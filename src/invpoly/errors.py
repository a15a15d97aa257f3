"""Exception types shared across the library and the CLI.

Each class states the exit code the CLI ends with when it is raised, as
``exit_code``; the CLI catches InvpolyError in one place and exits with
that code.  Any other exception is a bug and ends in a traceback.
"""


class InvpolyError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class InputError(InvpolyError, ValueError):
    """Malformed input: bad h-sequence, bad pair set, bad JSON."""

    exit_code = 3


class NoDescentError(InvpolyError):
    """A nonempty pair set without any descent pair has no maximum descent.

    Such a set is never admissible, so asking for it usually signals a bug
    in the caller.
    """

    exit_code = 2


class InadmissibleSetError(InvpolyError):
    """An expansion was requested for a set that is not h-admissible."""

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


class PosetCycleError(InvpolyError):
    """Order relations produced a cycle; indicates an admissibility bug."""

    exit_code = 3


class RouteDisagreementError(InvpolyError):
    """Two independent routes to the same quantity gave different answers.

    The routes are equivalent by theorem, so this is a bug in one of them.
    """

    exit_code = 5
