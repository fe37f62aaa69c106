"""Degree-n Chern-class inequalities from pulled-back effective classes.

Every generated item is a homogeneous degree-n polynomial in the variety's
Chern classes, coefficients in Q[m], asserted >= 0.  Four families:

- effective: (-1)^n times a product of pulled-back subbundle Chern classes,
  one factor per part of a weight-n partition.
- upper: the top power of the pulled-back first class dominates each such
  product; lhs is the signed difference.
- comparison: for two weight-n partitions a, b whose subbundle monomials
  differ by an effective Schubert combination, the corresponding products of
  pulled-back classes are comparable.
- schubert-class: the pullback of a single Schubert class, expanded through
  the determinant formula into subbundle classes and then into the variety's
  Chern classes.

Dual routes are checked on every construction: the effective family is
recomputed through the determinant expansion, and the schubert-class family
through the conjugate determinant.  A route disagreement raises instead of
emitting a wrong inequality.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .chern import (
    ChernPoly,
    chern_s_to_schubert,
    gauss_pullback_chern,
    schubert_class_in_chern_s,
    schubert_class_in_chern_s_dual,
    substitute,
)
from .partitions import Partition, enumerate_partitions
from .schubert import is_effective


class Provenance(NamedTuple):
    kind: str
    a: Partition
    b: Partition | None = None


class Inequality(NamedTuple):
    n: int
    lhs: ChernPoly
    provenance: Provenance
    m_value: int | None = None  # None while m is symbolic

    @property
    def relation(self) -> str:
        return ">=0"

    def is_trivial(self) -> bool:
        return self.lhs.is_zero()


@functools.cache
def _gauss_product(a: Partition, n: int) -> ChernPoly:
    out = ChernPoly.one("x")
    for part in a:
        out = out * gauss_pullback_chern(n, part)
    return out


def _substitute_gauss(poly: ChernPoly, n: int) -> ChernPoly:
    return substitute(poly, lambda i: gauss_pullback_chern(n, i), variables="x")


def _label(a: Partition) -> str:
    return "(" + ",".join(map(str, a)) + ")"


def _require_weight(a, n: int) -> Partition:
    if not isinstance(a, Partition):
        a = Partition(a)
    if a.weight != n:
        raise ValueError(f"partition {tuple(a)} does not have weight {n}")
    return a


def effective_inequality(a, n: int) -> Inequality:
    """(-1)^n times the product of pulled-back classes indexed by a.

    Built twice: directly, and through the determinant expansion of each
    one-column class; the two must agree exactly.
    """
    a = _require_weight(a, n)
    sign = -1 if n % 2 else 1
    direct = _gauss_product(a, n) * sign
    via_columns = ChernPoly.one("s")
    for part in a:
        via_columns = via_columns * schubert_class_in_chern_s(Partition([1] * part))
    routed = _substitute_gauss(via_columns, n)
    if routed != direct:
        raise RuntimeError(f"effective family n={n}: routes disagree for {_label(a)}")
    return Inequality(n, direct, Provenance("effective", a))


def upper_inequality(a, n: int) -> Inequality:
    """The top self-product dominates each product of pulled-back classes."""
    a = _require_weight(a, n)
    sign = -1 if n % 2 else 1
    lhs = (_gauss_product(Partition([1] * n), n) - _gauss_product(a, n)) * sign
    return Inequality(n, lhs, Provenance("upper", a))


def schubert_class_inequality(a, n: int) -> Inequality:
    """Pullback of one Schubert class, nonnegative because the class is.

    The subbundle-class expansion is computed through the determinant of
    single-row classes and cross-checked against the conjugate determinant
    of one-column classes before substitution.
    """
    a = _require_weight(a, n)
    primary = schubert_class_in_chern_s(a)
    mirrored = schubert_class_in_chern_s_dual(a)
    if primary != mirrored:
        raise RuntimeError(f"schubert-class family n={n}: routes disagree for {_label(a)}")
    return Inequality(n, _substitute_gauss(primary, n), Provenance("schubert-class", a))


def comparison_inequalities(n: int) -> list[Inequality]:
    """All pairwise comparisons of weight-n subbundle monomials.

    For an ordered pair (hi, lo) the difference of their Schubert expansions
    must be effective; then the difference of the pulled-back products,
    signed by (-1)^n, is nonnegative.  Zero and repeated left sides are
    kept; generate_all drops them.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    parts = enumerate_partitions(n)
    sign = -1 if n % 2 else 1
    out: list[Inequality] = []
    for i, a in enumerate(parts):
        for b in parts[i + 1 :]:
            for hi, lo in ((a, b), (b, a)):
                diff = chern_s_to_schubert(hi) - chern_s_to_schubert(lo)
                if diff.is_zero() or not is_effective(diff):
                    continue
                lhs = (_gauss_product(hi, n) - _gauss_product(lo, n)) * sign
                out.append(Inequality(n, lhs, Provenance("comparison", hi, lo)))
    return out


def generate_all(n: int, include_comparisons: bool = True) -> list[Inequality]:
    """Every inequality from the four families, deduplicated, fixed order.

    Order: effective, upper, comparison, schubert-class, each family over
    partitions in descending alphabet order.  Zero left sides are dropped;
    identical left sides keep their first provenance.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    parts = enumerate_partitions(n)
    items: list[Inequality] = []
    items += [effective_inequality(a, n) for a in parts]
    items += [upper_inequality(a, n) for a in parts]
    if include_comparisons:
        items += comparison_inequalities(n)
    items += [schubert_class_inequality(a, n) for a in parts]
    out: list[Inequality] = []
    seen = set()
    for ineq in items:
        if ineq.is_trivial():
            continue
        key = ineq.lhs.key()
        if key in seen:
            continue
        seen.add(key)
        out.append(ineq)
    return out


def specialize(ineq: Inequality, m_value: int) -> Inequality:
    """Evaluate the coefficients at an integer m and divide out the positive
    rational content; division happens only after specialization so every
    divisor has a known sign.
    """
    if m_value == 0:
        raise ValueError("m must be nonzero")
    lhs = ineq.lhs.specialize_m(m_value)
    if not lhs.is_zero():
        content = lhs.content()
        if content > 0 and content != 1:
            lhs = lhs * (Fraction(1) / content)
    return Inequality(ineq.n, lhs, ineq.provenance, m_value)
