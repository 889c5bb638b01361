"""Exact classification of q-bic forms over finite and rational function fields."""

__version__ = "0.1.0"


class InputError(ValueError):
    """Raised when a value from outside the program is refused; operands
    the program builds itself are refused with a plain ValueError."""


class CostGuardError(Exception):
    """Raised when an operation would exceed its configured cost guard."""


class VerificationError(Exception):
    """Raised when a computed certificate or an intermediate invariant of
    its construction fails its explicit check."""


def _check(ok, what):
    """Raise VerificationError(what) unless ok; unlike assert, the check
    also runs under python -O."""
    if not ok:
        raise VerificationError(what)
