"""The four checkers of the input contract that the package docstring states.

Each refusal is a ValueError that names the parameter and shows the value it
was given.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def _refusal(name: str, x, want: str) -> ValueError:
    try:
        shown = repr(x)
    except ValueError:  # an int with more digits than str converts
        shown = f"an int of {x.bit_length()} bits"
    return ValueError(f"{name} must be {want}, got {name}={shown}")


def real(name: str, x, lo: float = -math.inf, hi: float = math.inf, *, above: bool = False,
         finite: bool = True) -> float:
    """x as a float in [lo, hi], or in (lo, hi] when above; +-inf only when not finite."""
    value = x
    if type(x) is not float:
        try:
            number = isinstance(x, numbers.Real) and not isinstance(x, bool)
            value = float(x) if number else math.nan  # NaN is refused below
        except OverflowError:
            value = math.nan
    if lo <= value <= hi and (value - value == 0.0 or not finite) and not (above and value == lo):
        return value
    if isinstance(x, numbers.Integral) and not isinstance(x, bool) and value != value:
        want = "a real number that fits in a float"
    else:
        opened = "(" if above or (finite and lo == -math.inf) else "["
        interval = f"{opened}{lo!r}, {hi!r}{')' if finite and hi == math.inf else ']'}"
        want = f"a {'finite ' if finite else ''}real number in {interval}"
    raise _refusal(name, x, want)


def whole(name: str, x, lo: int, hi: float | None = None) -> int:
    """x as an int in [lo, hi] (no upper bound when hi is None)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < lo or (hi is not None and x > hi):
        raise _refusal(name, x, f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi!r}]")
    return int(x)


def pair(name: str, x, lo: float, hi: float) -> tuple[int, int] | None:
    """None, or a tuple or list x of two entries as ints (a, b), lo <= a <= b <= hi, each by whole as name[i]."""
    if x is None:
        return None
    if not (isinstance(x, (tuple, list)) and len(x) == 2):
        raise _refusal(name, x, "a pair of integers")
    a, b = whole(f"{name}[0]", x[0], lo, hi), whole(f"{name}[1]", x[1], lo, hi)
    if a > b:
        raise _refusal(name, x, "a pair of integers (first, last) with first <= last")
    return a, b


def as_numbers(name: str, x, limit: float | None = None) -> np.ndarray:
    """x as a float array; with a limit, every value finite with modulus <= limit.

    An object array of ints (not bools) and floats, which numpy makes of an
    int past 64 bits, is converted entry by entry, and refused if an int is
    past the float range.  An array's first entry past the limit is shown,
    with its index.
    """
    given = a = np.asarray(x)
    if given.dtype == object and all(
        isinstance(v, (numbers.Integral, float)) and not isinstance(v, bool) for v in given.flat
    ):
        try:
            a = given.astype(float)
        except OverflowError:
            raise _refusal(name, x, "real numbers that fit in a float") from None
    if a.dtype.kind not in "iuf":
        raise _refusal(name, x, "real numbers")
    a = np.asarray(a, dtype=float)
    if limit is not None:
        ok = np.abs(a) <= limit  # False at NaN and +-inf
        if not ok.all():
            want = f"finite real numbers with |{name}| <= {limit!r}"
            if not a.ndim:
                raise _refusal(name, x, want)
            at = [int(i) for i in np.unravel_index(np.flatnonzero(~ok)[0], a.shape)]
            raise _refusal(f"{name}{at}", given.item(tuple(at)), want)
    return a
