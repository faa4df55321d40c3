"""Moduli of the genus-two tower family and the derived symmetric coefficients.

A surface in the family is pinned down by five real moduli (a, b, x, X, y)
subject to 0 < x < a < 1 < y < b and a <= X < 1.  The two-parameter family
is tracked by t = a - x and X_offset = X - a; the remaining moduli (a, b, y)
are determined by the three period conditions (see the periods module).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainViolation


def check_moduli(a: float, b: float, x: float, X: float,
                 y: float | None = None) -> None:
    """Raise DomainViolation unless 0 < x < a < 1 < y < b and a <= X < 1;
    before y is known, 1 < b stands in for 1 < y < b."""
    upper = 1.0 < b if y is None else 1.0 < y < b
    if not (0.0 < x < a < 1.0 and upper and a <= X < 1.0):
        raise DomainViolation(f"need 0 < x < a < 1 < y < b and a <= X < 1, "
                              f"got x={x}, a={a}, X={X}, y={y}, b={b}")


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


def from_family(t: float, X_offset: float, a: float, b: float, y: float) -> SurfaceParams:
    """Build params from the family coordinates (t, X_offset) and (a, b, y)."""
    return SurfaceParams(a=a, b=b, x=a - t, X=a + X_offset, y=y).validate()


@dataclass(frozen=True)
class SymFuncs:
    """Coefficients of the signed elementary-symmetric expansion in the moduli.

    S2 and S4 are the coefficients of the real quartic z^4 + S2 z^2 + S4
    whose roots mark the interior points with vertical normal; S1, S3, S5
    appear in the odd part of the same product expansion.
    """
    S1: float
    S2: float
    S3: float
    S4: float
    S5: float


def sym_funcs(p: SurfaceParams) -> SymFuncs:
    a, b, x, X, y = p.a, p.b, p.x, p.X, p.y
    del a  # S-coefficients do not involve a
    S1 = x + 2*X - b - y
    S2 = b*y - b*x - x*y + 2*(x - b - y)*X + X**2
    S3 = b*x*y + 2*(b*y - b*x - x*y)*X + (x - b - y)*X**2
    S4 = 2*b*x*y*X + (b*y - b*x - x*y)*X**2
    S5 = b*x*y*X**2
    return SymFuncs(S1=S1, S2=S2, S3=S3, S4=S4, S5=S5)
