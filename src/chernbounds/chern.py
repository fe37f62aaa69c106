"""Chern-class polynomials and the conversions the inequality pipeline needs.

A ChernPoly is a homogeneous polynomial whose variables are Chern classes
c_1, c_2, ... and whose coefficients live in Q[m] (see mpoly).  A monomial is
a partition (the multiset of indices) plus an optional power of one extra
degree-one symbol, the first Chern class of a twisting line bundle; that
symbol only ever appears in the output of twisted_chern and is substituted
away before anything reaches the pipeline.

The `variables` tag records what the c_i mean ("x": the variety's tangent
bundle, "s": the universal subbundle of a Grassmannian, "e": an abstract
bundle next to the line symbol, "a": formal series coefficients).  Arithmetic
refuses to mix tags, which catches category errors early.

The ChernPoly constructor is the one place where terms are merged: it takes a
mapping or an iterable of (monomial, coefficient) pairs, adds up repeated
monomials and drops zero coefficients.  Every operation and builder below
hands it pairs and merges nothing itself.

gauss_pullback_chern, special_to_chern_s and chern_s_to_schubert are pure
tables cached for the life of the process; every caller shares the returned
value, so it must never be mutated.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

from .mpoly import M, MPoly, rational_content
from .partitions import Partition, enumerate_partitions
from .schubert import SchubertExpr, multiply, sigma, special_expansion


class Monomial(NamedTuple):
    """Product of Chern variables (a partition of indices) times line^line_power."""

    parts: Partition
    line_power: int = 0

    @property
    def degree(self) -> int:
        return self.parts.weight + self.line_power


def _mono(parts, line_power: int = 0) -> Monomial:
    if not isinstance(parts, Partition):
        parts = Partition(parts)
    if line_power < 0:
        raise ValueError("line power must be nonnegative")
    return Monomial(parts, line_power)


def _as_mpoly(x) -> MPoly:
    if isinstance(x, MPoly):
        return x
    return MPoly.const(x)


class ChernPoly:
    """Homogeneous polynomial in Chern variables over Q[m].

    `terms` is a mapping or an iterable of (monomial, coefficient) pairs.
    Repeated monomials are added up here, once, and zero coefficients are
    dropped; a monomial may be given as a Monomial or as its parts.
    """

    __slots__ = ("terms", "variables")

    def __init__(self, terms=None, variables: str = "x"):
        d: dict[Monomial, MPoly] = {}
        for mono, coeff in terms.items() if hasattr(terms, "items") else terms or ():
            if not isinstance(mono, Monomial):
                mono = _mono(mono)
            coeff = _as_mpoly(coeff)
            if coeff:
                d[mono] = d[mono] + coeff if mono in d else coeff
        d = {mn: c for mn, c in d.items() if c}
        degrees = {mn.degree for mn in d}
        if len(degrees) > 1:
            raise ValueError(f"inhomogeneous terms, degrees {sorted(degrees)}")
        self.terms = d
        self.variables = variables

    @classmethod
    def zero(cls, variables: str = "x") -> "ChernPoly":
        return cls({}, variables)

    @classmethod
    def one(cls, variables: str = "x") -> "ChernPoly":
        return cls({_mono(()): MPoly.const(1)}, variables)

    @property
    def degree(self) -> int | None:
        """Common degree of the terms, or None for the zero polynomial."""
        for mn in self.terms:
            return mn.degree
        return None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, parts, line_power: int = 0) -> MPoly:
        return self.terms.get(_mono(parts, line_power), MPoly.zero())

    def _check(self, other: "ChernPoly"):
        if self.terms and other.terms and self.variables != other.variables:
            raise ValueError(f"mixed variable tags {self.variables!r} vs {other.variables!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChernPoly):
            return NotImplemented
        if not self.terms and not other.terms:
            return True
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """Canonical hashable form (used for deduplication)."""
        items = tuple(sorted((tuple(mn.parts), mn.line_power, c.coeffs) for mn, c in self.terms.items()))
        return (self.variables if items else "", items)

    def __add__(self, other):
        if not isinstance(other, ChernPoly):
            return NotImplemented
        self._check(other)
        terms = [*self.terms.items(), *other.terms.items()]
        return ChernPoly(terms, self.variables if self.terms else other.variables)

    def __sub__(self, other):
        if not isinstance(other, ChernPoly):
            return NotImplemented
        self._check(other)
        terms = [*self.terms.items(), *((mn, -c) for mn, c in other.terms.items())]
        return ChernPoly(terms, self.variables if self.terms else other.variables)

    def __neg__(self):
        return ChernPoly({mn: -c for mn, c in self.terms.items()}, self.variables)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            other = _as_mpoly(other)
            return ChernPoly({mn: c * other for mn, c in self.terms.items()}, self.variables)
        if not isinstance(other, ChernPoly):
            return NotImplemented
        self._check(other)
        products = []
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                parts = Partition(sorted(m1.parts + m2.parts, reverse=True))
                products.append((Monomial(parts, m1.line_power + m2.line_power), c1 * c2))
        return ChernPoly(products, self.variables if self.terms else other.variables)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ChernPoly":
        if k < 0:
            raise ValueError("negative power")
        out = ChernPoly.one(self.variables)
        for _ in range(k):
            out = out * self
        return out

    def specialize_m(self, m_value) -> "ChernPoly":
        """Evaluate every coefficient at a numeric m; result has constant coefficients."""
        out = {mn: MPoly.const(c(m_value)) for mn, c in self.terms.items()}
        return ChernPoly(out, self.variables)

    def content(self) -> Fraction:
        """gcd of all rational coefficients appearing in the terms."""
        vals = [v for c in self.terms.values() for v in c.coeffs]
        return rational_content(vals)

    def is_integral(self) -> bool:
        return all(c.is_integral() for c in self.terms.values())

    def __repr__(self) -> str:
        if not self.terms:
            return "ChernPoly(0)"
        items = sorted(self.terms.items())
        body = " + ".join(f"({c!r})*c{tuple(mn.parts)}" + (f"*L^{mn.line_power}" if mn.line_power else "") for mn, c in items)
        return f"ChernPoly[{self.variables}]({body})"


def cvar(i: int, variables: str = "x") -> ChernPoly:
    """The single variable c_i."""
    if i < 1:
        raise ValueError("Chern index must be positive")
    return ChernPoly({_mono((i,)): MPoly.const(1)}, variables)


def cmono(parts, coeff=1, variables: str = "x", line_power: int = 0) -> ChernPoly:
    """One term: coeff times the monomial for `parts` (times the line symbol)."""
    return ChernPoly({_mono(parts, line_power): _as_mpoly(coeff)}, variables)


def substitute(
    poly: ChernPoly,
    var_map: Callable[[int], ChernPoly],
    line: ChernPoly | None = None,
    variables: str = "x",
) -> ChernPoly:
    """Replace each c_i by var_map(i) and the line symbol by `line`.

    All replacement polynomials must share the target `variables` tag.
    """
    terms = []
    for mn, coeff in poly.terms.items():
        term = ChernPoly.one(variables)
        for p in mn.parts:
            term = term * var_map(p)
        if mn.line_power:
            if line is None:
                raise ValueError("polynomial contains the line symbol but no substitution was given")
            term = term * line**mn.line_power
        terms += ((m, c * coeff) for m, c in term.terms.items())
    return ChernPoly(terms, variables)


def twisted_chern(rank: int, p: int) -> ChernPoly:
    """c_p of a rank-`rank` bundle twisted by a line bundle.

    Output lives in variables "e": c_i of the untwisted bundle next to the
    line symbol, with binomial coefficients binom(rank-i, p-i).
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    if not 0 <= p <= rank:
        raise ValueError("need 0 <= p <= rank")
    terms = ((_mono((i,) if i else (), p - i), math.comb(rank - i, p - i)) for i in range(p + 1))
    return ChernPoly(terms, "e")


def tangent_twisted_chern(n: int, p: int) -> ChernPoly:
    """c_p of the tangent bundle twisted down by m times the canonical class.

    Specializes twisted_chern to rank n, c_i of the tangent bundle, and line
    class m*c_1; the line symbol is already substituted away.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if not 0 <= p <= n:
        raise ValueError("need 0 <= p <= n")
    terms = (
        (sorted(([i] if i else []) + [1] * (p - i), reverse=True), math.comb(n - i, p - i) * M ** (p - i))
        for i in range(p + 1)
    )
    return ChernPoly(terms, "x")


@functools.cache
def gauss_pullback_chern(n: int, p: int) -> ChernPoly:
    """c_p of the pullback of the universal subbundle along the Gauss map.

    Equals the twisted tangent class plus m*c_1 times the next one down.
    """
    res = tangent_twisted_chern(n, p)
    if p >= 1:
        res = res + (M * cvar(1)) * tangent_twisted_chern(n, p - 1)
    return res


@functools.cache
def special_to_chern_s(w: int) -> ChernPoly:
    """The weight-w special Schubert class written in subbundle Chern classes.

    For each partition of w the coefficient is (-1)^length times the number
    of compositions with those parts (a multinomial of multiplicities).
    """
    if w < 0:
        raise ValueError("weight must be nonnegative")
    if w == 0:
        return ChernPoly.one("s")
    terms = []
    for lam in enumerate_partitions(w):
        mult = math.factorial(len(lam))
        for c in Counter(lam).values():
            mult //= math.factorial(c)
        terms.append((lam, -mult if len(lam) % 2 else mult))
    return ChernPoly(terms, "s")


def chern_s_to_schubert(a: Partition) -> SchubertExpr:
    """Schubert expansion of (-1)^|a| times the subbundle Chern monomial for a.

    This is the product over the parts of the classes (1,)*part, computed in
    stable mode and cached per partition.
    """
    if not isinstance(a, Partition):
        a = Partition(a)
    return _chern_s_to_schubert(a)


@functools.cache
def _chern_s_to_schubert(a: Partition) -> SchubertExpr:
    out = sigma()
    for part in a:
        out = multiply(out, sigma(*([1] * part)))
    return out


def schubert_class_in_chern_s(a: Partition) -> ChernPoly:
    """A Schubert class written as a polynomial in subbundle Chern classes.

    Route: Giambelli determinant over special classes, then each special
    class through special_to_chern_s.
    """
    terms = []
    for prod, sign in special_expansion(a).items():
        term = ChernPoly.one("s")
        for idx in prod:
            term = term * special_to_chern_s(idx)
        terms += ((mn, c * sign) for mn, c in term.terms.items())
    return ChernPoly(terms, "s")


def schubert_class_in_chern_s_dual(a: Partition) -> ChernPoly:
    """Same expansion by the conjugate determinant over one-column classes.

    Independent route used to cross-check schubert_class_in_chern_s: expand
    the determinant indexed by the conjugate partition, whose entries are
    one-column classes, i.e. subbundle Chern variables up to sign.
    """
    if not isinstance(a, Partition):
        a = Partition(a)
    terms = (
        (prod, -sign if sum(prod) % 2 else sign)
        for prod, sign in special_expansion(a.conjugate()).items()
    )
    return ChernPoly(terms, "s")


def banded_determinant(k: int) -> ChernPoly:
    """Determinant of the k x k band matrix with rows a_1..a_k shifting right
    and ones on the subdiagonal, expanded by first-column cofactors.

    Returns a polynomial in formal symbols a_i (variables tag "a"); the
    result is homogeneous of degree k when a_i has degree i.
    """
    if k < 0:
        raise ValueError("size must be nonnegative")
    memo: dict[tuple[int, int], ChernPoly] = {}

    def det(s: int, t: int) -> ChernPoly:
        # t x t matrix whose first row is a_s, a_{s+1}, ...; rows below banded
        if t == 0:
            return ChernPoly.one("a")
        if t == 1:
            return cmono((s,), 1, "a")
        key = (s, t)
        if key not in memo:
            memo[key] = cmono((s,), 1, "a") * det(1, t - 1) - det(s + 1, t - 1)
        return memo[key]

    return det(1, k)


def determinant_recursion_check(n: int) -> bool:
    """Verify the inversion identity sum_{i=0}^n (-1)^i D_i a_{n-i} == 0.

    The D_i are genuine determinants (cofactor expansion), so this checks the
    band-determinant identity rather than restating its recursion.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = ChernPoly.zero("a")
    for i in range(n + 1):
        d_i = banded_determinant(i)
        a_tail = ChernPoly.one("a") if i == n else cmono((n - i,), 1, "a")
        sign = -1 if i % 2 else 1
        total = total + d_i * a_tail * sign
    return total.is_zero()
