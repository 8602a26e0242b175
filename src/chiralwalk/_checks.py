"""Checks on scalar and array arguments of the public functions, shared by every layer.

Each raises ValueError naming the parameter and the value it was given.
"""

from __future__ import annotations

import numpy as np


def check_number(name: str, x) -> None:
    """Refuse a bool or a string where a scalar number belongs, with ValueError naming the parameter.

    Without it a bool would run as 0 or 1, and a string would fail later in
    a comparison with TypeError.
    """
    if isinstance(x, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{name} must be a number, not a {type(x).__name__}, got {name}={x!r}")


def as_numbers(name: str, x) -> np.ndarray:
    """x, a scalar or an array, as a float array; bools and strings are refused with ValueError naming the parameter.

    np.asarray(x, dtype=float) would read True as 1.0 and parse '0.1'.
    """
    x = np.asarray(x)
    if x.dtype.kind in "bSU":
        kind = "bools" if x.dtype.kind == "b" else "strings"
        raise ValueError(f"{name} must be numbers, not {kind}, got {name}={x if x.ndim else x.item()!r}")
    return np.asarray(x, dtype=float)
