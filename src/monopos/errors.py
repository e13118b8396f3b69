"""Exception hierarchy shared by the whole toolkit.

Three failure classes map onto distinct process exit codes so that scripted
callers can tell bad input (2) from a refused computation (3) from a broken
internal invariant (4).
"""

EXIT_BAD_INPUT = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


class MonoposError(Exception):
    exit_code = 1


class InputError(MonoposError):
    """Malformed or out-of-domain user input."""

    exit_code = EXIT_BAD_INPUT


class Graph6Error(InputError):
    """graph6 decoding failure, pointing at the offending byte."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class LimitError(MonoposError):
    """A computation was refused or aborted because it exceeds a cap.

    Limits are hard failures by design: no partial or approximate value is
    ever returned in place of an exact one.
    """

    exit_code = EXIT_LIMIT


class CapExceeded(LimitError):
    """Input size is above the cap configured for an exact routine."""


class BudgetExceeded(LimitError):
    """A search exhausted its node-expansion budget before finishing."""


class NodeLimitExceeded(LimitError):
    """Branch-and-bound hit its node limit before proving optimality."""


class InternalCheckError(MonoposError):
    """A self-check that should be unconditionally true has failed."""

    exit_code = EXIT_INTERNAL


def require_positive(**limits: int) -> None:
    """Refuse a cap, node limit or worker count below 1 as bad input: such a
    value is a malformed request, not a limit that the work ran into."""
    for name, value in limits.items():
        if value < 1:
            raise InputError(f"{name} must be at least 1, got {value}")


def require_cap(what: str, cap: int, order: int) -> None:
    """Refuse a cap below 1 as bad input, then an order over the cap."""
    require_positive(cap=cap)
    if order > cap:
        raise CapExceeded(f"{what} cap {cap} exceeded by order {order}")
