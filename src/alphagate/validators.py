"""Argument checks shared by the package.

Every check of a numeric argument in the package goes through
:func:`integer` or :func:`real`, so a bad one always raises the caller's
``error``, ``DomainError`` or ``InvalidScenario``, with one message format
per kind of check and the argument's name as its ``field``. A numpy integer
is an integer here, and the check returns it as a Python int. A bool, Python
or numpy, is neither an integer nor a real, and a value that ``float()``
cannot take (``None``, a list, ``10**400``) fails the real check like any
value out of range.
"""

from __future__ import annotations

import operator
import sys

from .errors import DomainError, InvalidScenario

#: Largest supported family size: it keeps ``(1 - x)**k`` numerically benign.
K_MAX = 10_000_000
#: Largest supported per-group sample size: every integer up to it is a double.
N_MAX = 2**53
#: Upper bound of ``simulate``'s ``threads``; workers are further capped at
#: the chunk count and the CPUs the process may run on (its affinity mask).
MAX_THREADS = 1024
#: Upper bound of a scenario's ``reps``.
MAX_REPS = 100_000_000


def _show(bound: int) -> str:
    # a large power of two reads better as one: 2**53 rather than its 16 digits
    return f"2**{bound.bit_length() - 1}" if bound > 2**32 and bound & (bound - 1) == 0 else str(bound)


def is_bool(value) -> bool:
    """Whether ``value`` is a Python or a numpy bool. numpy is looked up, not
    imported: no value is a numpy bool before numpy has loaded."""
    numpy = sys.modules.get("numpy")
    return isinstance(value, bool) or (numpy is not None and isinstance(value, numpy.bool_))


def integer(
    value, name: str, lo: int, hi: int | None = None, *, error: type[DomainError | InvalidScenario] = DomainError
) -> int:
    """``value`` as an int if it is an integer in [lo, hi], or >= lo when hi is
    None: an int or a numpy integer, by ``operator.index``, but not a bool."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < lo or (hi is not None and number > hi):
        span = f">= {_show(lo)}" if hi is None else f"in [{_show(lo)}, {_show(hi)}]"
        raise error(f"{name} must be an integer {span}, got {value!r}", name)
    return number


def real(
    value, name: str, lo: float, hi: float, ends: str = "()", *, error: type[DomainError | InvalidScenario] = DomainError
) -> float:
    """``float(value)`` if it lies between lo and hi; ``ends`` gives the
    brackets, "(" or "[" then ")" or "]", so an open end excludes its bound;
    nan lies in no interval, and a bool is not a real."""
    try:
        if is_bool(value):  # fails like a value float() cannot take
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        shown = repr(value)
    else:
        above = lo <= x if ends[0] == "[" else lo < x
        below = x <= hi if ends[1] == "]" else x < hi
        if above and below:
            return x
        shown = repr(x)
    raise error(f"{name} must be a real in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {shown}", name)
