"""Moduli of the genus-two tower family and the derived symmetric coefficients.

A surface in the family is pinned down by five real moduli (a, b, x, X, y)
subject to 0 < x < a < 1 < y < b and a <= X < 1.  The two-parameter family
is tracked by t = a - x and X_offset = X - a; the remaining moduli (a, b, y)
are determined by the three period conditions (see the periods module).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainViolation


def check_moduli(a: float, b: float, x: float, X: float,
                 y: float | None = None) -> None:
    """Raise DomainViolation unless 0 < x < a < 1 < y < b < inf and
    a <= X < 1; before y is known, 1 < b stands in for 1 < y < b."""
    upper = 1.0 < b < math.inf if y is None else 1.0 < y < b < math.inf
    if not (0.0 < x < a < 1.0 and upper and a <= X < 1.0):
        raise DomainViolation(f"need 0 < x < a < 1 < y < b < inf and "
                              f"a <= X < 1, got x={x}, a={a}, X={X}, y={y}, "
                              f"b={b}")


@dataclass(frozen=True)
class SurfaceParams:
    a: float
    b: float
    x: float
    X: float
    y: float

    def validate(self) -> "SurfaceParams":
        check_moduli(self.a, self.b, self.x, self.X, self.y)
        return self

    @property
    def t(self) -> float:
        return self.a - self.x

    @property
    def X_offset(self) -> float:
        return self.X - self.a


@dataclass(frozen=True)
class SymFuncs:
    """Coefficients of the product

        (z - b)(z + x)(z - y)(z + X)^2 = z^5 + S1 z^4 + S2 z^3 + S3 z^2 + S4 z + S5.

    Its even part in z gives z^4 + S2 z^2 + S4, the real quartic whose roots
    mark the interior points with vertical normal.
    """
    S1: float
    S2: float
    S3: float
    S4: float
    S5: float


def s_coeffs(b: float, x: float, X: float, y) -> tuple:
    """(S1, ..., S5).  With (z + X)^2 (z - b)(z + x) = z^4 + q1 z^3 + q2 z^2
    + q3 z + q4, the factor (z - y) makes S_k = q_k - y q_{k-1} (q0 = 1,
    q5 = 0), linear in y.  Elementwise, so y may be an array."""
    q = (1.0, 2*X + x - b, X*X + 2*X*(x - b) - b*x,
         X*X*(x - b) - 2*b*x*X, -b*x*X*X, 0.0)
    return tuple(q[k] - y*q[k - 1] for k in range(1, 6))


def sym_funcs(p: SurfaceParams) -> SymFuncs:
    return SymFuncs(*s_coeffs(p.b, p.x, p.X, p.y))
