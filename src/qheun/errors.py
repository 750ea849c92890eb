"""Typed exceptions shared across the package.

Every numerical routine reports domain violations and convergence
failures through these classes so that callers (and the CLI) can react
per point instead of aborting a whole run.  A float overflow or a
division by zero becomes a DomainError that names the original class
and where it happened (out_of_range); the library's point functions
raise it so (typed_at_point).
"""

import functools


class QHeunError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QHeunError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(QHeunError):
    """The requested value sits on a pole of the underlying function."""


class ConvergenceError(QHeunError):
    """A series or product does not converge at the requested point, or
    did not meet its stopping rule within its fixed term limit."""


class DegenerateRecurrence(QHeunError):
    """A leading recurrence coefficient vanishes; coefficients are not determined."""


class PreconditionError(QHeunError):
    """A structural precondition (integer relation, inequality) is violated."""


class NotARoot(QHeunError):
    """The supplied eigenvalue is not a root of the accessory polynomial."""


class NoLimit(QHeunError):
    """A numerically estimated limit neither settled nor decayed to zero."""


class NoConvergence(QHeunError):
    """An accessory root failed its certificate, or no root of the
    polynomial could be certified (its monic coefficients not finite)."""


class ConvergenceHypothesisWarning(UserWarning):
    """Evaluation proceeds, but a sufficient-condition inequality fails."""


def out_of_range(exc: ArithmeticError, where: str) -> DomainError:
    """The typed error for a float overflow or a division by zero, where it happened."""
    err = DomainError(f"{type(exc).__name__} {where}: {exc}")
    err.__cause__ = exc
    return err


def typed_at_point(fn):
    """fn, whose last argument is the point x, raising a float overflow or
    division by zero as the DomainError of out_of_range at x."""

    @functools.wraps(fn)
    def typed(*args):
        try:
            return fn(*args)
        except ArithmeticError as exc:
            raise out_of_range(exc, f"at x = {complex(args[-1])!r}")

    return typed
