"""Dense univariate polynomials over Q in the twisting multiple m.

Coefficients are exact and stored as given: an int stays an int, and a
fractions.Fraction appears only where a division or the Todd series makes one.
The two compare, hash and print alike.  Nothing in the package ever rounds.
MPoly instances are immutable and hashable.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _exact(x) -> int | Fraction:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"not an exact rational: {x!r}")


class MPoly:
    """Polynomial in one variable m with int or Fraction coefficients.

    coeffs[k] is the coefficient of m^k; trailing zeros are stripped.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def const(cls, value) -> "MPoly":
        return cls((_exact(value),))

    @classmethod
    def zero(cls) -> "MPoly":
        return cls(())

    @property
    def degree(self) -> int:
        """Degree in m; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> int | Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self!r}")
        return self.coeffs[0] if self.coeffs else 0

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __call__(self, m_value) -> int | Fraction:
        m_value = _exact(m_value)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * m_value + c
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("MPoly", self.coeffs))

    def __neg__(self) -> "MPoly":
        return MPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return MPoly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(c * other for c in self.coeffs)
        if not isinstance(other, MPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return MPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return MPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Fraction(_exact(other))
        if other == 0:
            raise ZeroDivisionError
        return MPoly(c / other for c in self.coeffs)

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power")
        out = MPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self) -> str:
        if not self.coeffs:
            return "MPoly(0)"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*m" if c != 1 else "m")
            else:
                parts.append(f"{c}*m^{k}" if c != 1 else f"m^{k}")
        return "MPoly(" + " + ".join(parts) + ")"


#: the generator m, for building coefficients as ordinary expressions
M = MPoly((0, 1))


def rational_content(values) -> Fraction:
    """gcd of exact values (int or Fraction): gcd of numerators / lcm of denominators."""
    num, den = 0, 1
    for v in values:
        v = _exact(v)
        num = math.gcd(num, abs(v.numerator))
        den = math.lcm(den, v.denominator)
    return Fraction(num, den)
