"""Todd polynomials in Chern classes, derived from the generating series.

The route is fully symbolic: take log of Q(x) = x/(1 - e^(-x)) as a one
variable series, evaluate the log on power sums of the Chern roots (Newton's
identities turn power sums into polynomials in the c_i), and exponentiate
the resulting graded series.  Nothing is hard coded; tests pin the classical
values independently.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .chern import ChernPoly, cvar


def log_todd_series(d: int) -> list[Fraction]:
    """Coefficients l_0..l_d of log(x/(1 - e^(-x))) as a series in x."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    # 1 - e^(-x) = x * sum_j (-1)^j x^j / (j+1)!
    s = [Fraction((-1) ** j, math.factorial(j + 1)) for j in range(d + 1)]
    q = [Fraction(1)]
    for k in range(1, d + 1):
        q.append(-sum(s[i] * q[k - i] for i in range(1, k + 1)))
    l = [Fraction(0)] * (d + 1)
    for k in range(1, d + 1):
        l[k] = q[k] - Fraction(1, k) * sum(i * l[i] * q[k - i] for i in range(1, k))
    return l


def power_sum(k: int) -> ChernPoly:
    """k-th power sum of the Chern roots as a polynomial in c_1..c_k."""
    if k < 1:
        raise ValueError("power sum index must be positive")
    p: list[ChernPoly] = [ChernPoly.zero("x")]
    for j in range(1, k + 1):
        acc = ChernPoly.zero("x")
        for i in range(1, j):
            acc = acc + cvar(i) * p[j - i] * ((-1) ** (i - 1))
        acc = acc + cvar(j) * ((-1) ** (j - 1) * j)
        p.append(acc)
    return p[k]


def _graded_mul(f: list[ChernPoly], g: list[ChernPoly], d: int) -> list[ChernPoly]:
    out = [ChernPoly.zero("x") for _ in range(d + 1)]
    for i in range(d + 1):
        if f[i].is_zero():
            continue
        for j in range(d + 1 - i):
            if g[j].is_zero():
                continue
            out[i + j] = out[i + j] + f[i] * g[j]
    return out


def todd_components(d: int) -> list[ChernPoly]:
    """Graded pieces td_0..td_d of the total Todd class, as a fresh list."""
    return list(_todd_components(d))


@functools.cache
def _todd_components(d: int) -> tuple[ChernPoly, ...]:
    if d < 0:
        raise ValueError("degree must be nonnegative")
    l = log_todd_series(d)
    log_comps = [ChernPoly.zero("x")]
    for k in range(1, d + 1):
        log_comps.append(power_sum(k) * l[k])
    out = [ChernPoly.zero("x") for _ in range(d + 1)]
    out[0] = ChernPoly.one("x")
    power = [ChernPoly.one("x")] + [ChernPoly.zero("x") for _ in range(d)]
    fact = 1
    for j in range(1, d + 1):
        # exp truncates at j = d since log has no constant term
        power = _graded_mul(power, log_comps, d)
        fact *= j
        for k in range(d + 1):
            out[k] = out[k] + power[k] * Fraction(1, fact)
    return tuple(out)


class ToddPolynomial(NamedTuple):
    """One graded Todd polynomial: its degree and its body in c_1..c_d."""

    degree: int
    body: ChernPoly


def todd_polynomial(d: int) -> ToddPolynomial:
    return ToddPolynomial(d, todd_components(d)[d])


def chi_structure_sheaf_functional(n: int) -> ChernPoly:
    """Degree-n Todd polynomial: evaluated on a variety's Chern numbers it
    gives the Euler characteristic of the structure sheaf."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return todd_components(n)[n]
