"""Typed exceptions shared across the package.

Every numerical routine reports domain violations and convergence
failures through these classes so that callers (and the CLI) can react
per point instead of aborting a whole run.

A float overflow or a division by zero is typed in one place: an entry
point decorated with typed(where) raises it as a DomainError that names
the original class and where(*args, **kwargs), the call's own account
of where it happened; typed_at_point is typed with the rule "at x = ...".
A where rule shows a point through shown, which takes any number.
The float kernels (accessory.recurrence_coeffs, qcore.q_pochhammer_ratio,
qcore.theta) are not decorated: they raise the raw error by contract,
and each caller types it with its own context.
"""

import functools
from typing import Callable


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


def typed(where: Callable[..., str]) -> Callable:
    """Decorator: fn, raising a float overflow or division by zero as the
    DomainError "<class> <where(*args, **kwargs)>: <message>" that it causes."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def typed_fn(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except ArithmeticError as exc:
                raise DomainError(f"{type(exc).__name__} {where(*args, **kwargs)}: {exc}") from exc

        return typed_fn

    return decorate


def shown(value) -> str:
    """repr(complex(value)), or repr(value) where complex() cannot take it (an int beyond the float range)."""
    try:
        return repr(complex(value))
    except OverflowError:
        return repr(value)


# fn, whose last argument is the point x, typed at that point.
typed_at_point = typed(lambda *args: f"at x = {shown(args[-1])}")
