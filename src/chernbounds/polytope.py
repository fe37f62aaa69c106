"""Convex polytope of Chern ratios cut out by the generated inequalities.

Coordinates are the ratios c_q / c_1^n indexed by weight-n partitions q
other than the all-ones one, listed in ascending alphabet order.  After
specializing m, each inequality divides by c_1^n; c_1^n has sign (-1)^n for
general type and +1 for Fano, so rows are multiplied by that sign to keep
the >= 0 direction.  Every row is a nonnegative combination of the
pulled-back Schubert rows, so the polytope is the simplex whose vertices
_homogeneous_vertices writes down in closed form as int pairs (L > 0, L*v).
Rows are int too, so a two-part guard (_simplex_vertices) proves in int
arithmetic that the rows cut out exactly that simplex (a failure is a
generator bug and raises RuntimeError); bounds, the min and max over the
vertices, are the only division.  lp_optimize solves exact rational LPs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .chern import ChernPoly, chern_s_to_schubert, cmono, cvar, gauss_pullback_chern, substitute
from .inequalities import Inequality, _label, generate_all, specialize
from .lp import simplex_max
from .partitions import Partition, enumerate_partitions
from .schubert import SchubertExpr
from .todd import chi_structure_sheaf_functional

GENERAL_TYPE = "general-type"
FANO = "fano"


def ratio_coordinates(n: int) -> list[Partition]:
    """Weight-n partitions except the all-ones one, ascending alphabet."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    ascending = list(reversed(enumerate_partitions(n)))
    return ascending[1:]


class RatioInequality(NamedTuple):
    n: int
    coeffs: tuple[int, ...]  # aligned with ratio_coordinates(n)
    constant: int

    def is_constant_only(self) -> bool:
        return not any(self.coeffs)


def _mode_sign(n: int, m_value: int, mode: str) -> int:
    if mode == GENERAL_TYPE:
        if m_value < 1:
            raise ValueError("general-type mode needs m >= 1")
        return -1 if n % 2 else 1
    if mode == FANO:
        if m_value > -1:
            raise ValueError("fano mode needs m <= -1")
        return 1
    raise ValueError(f"unknown mode {mode!r}")


def normalize_to_ratio(ineq: Inequality, m_value: int, mode: str) -> RatioInequality:
    """Divide a specialized inequality by c_1^n and fix the direction; the row is int."""
    if ineq.m_value != m_value:
        raise ValueError("inequality must be specialized at the given m")
    sign = _mode_sign(ineq.n, m_value, mode)
    ones = Partition([1] * ineq.n)
    vals: dict[Partition, int] = {}
    for mono, coeff in ineq.lhs.terms.items():
        if mono.line_power:
            raise ValueError("unexpected twist symbol in inequality")
        if not coeff.is_constant():
            raise ValueError("coefficients still symbolic, specialize first")
        if coeff.constant_value().denominator != 1:
            raise ValueError(f"non-integer coefficient {coeff.constant_value()} in a specialized inequality")
        vals[mono.parts] = int(coeff.constant_value())
    coords = ratio_coordinates(ineq.n)
    row = tuple(sign * vals.get(q, 0) for q in coords)
    const = sign * vals.get(ones, 0)
    if not any(row) and const == 0:
        raise ValueError("degenerate inequality 0 >= 0")
    return RatioInequality(ineq.n, row, const)


def build_polytope(
    n: int, m_value: int, mode: str = GENERAL_TYPE, include_comparisons: bool = True
) -> list[RatioInequality]:
    """Specialize, normalize, and deduplicate every generated inequality.

    Rows touching no coordinate are dropped; such a row always has a
    nonnegative constant (a negative one would mean a sign bug upstream).
    specialize leaves every row primitive (content 1), so rows equal up to
    positive scaling are already equal and dedupe as they are.
    """
    rows: dict[RatioInequality, None] = {}  # kept in first-seen order
    for ineq in generate_all(n, include_comparisons):
        ratio = normalize_to_ratio(specialize(ineq, m_value), m_value, mode)
        if ratio.is_constant_only():
            if ratio.constant < 0:
                where = f"polytope n={n} m={m_value}"
                label = f"{ineq.provenance.kind} {_label(ineq.provenance.a)}"
                raise RuntimeError(f"{where}: the {label} row is a negative constant")
            continue
        rows[ratio] = None
    return list(rows)


def _chern_in_schubert(n: int, m_value: int) -> dict[Partition, SchubertExpr]:
    """D^n A[q], where c_q = sum over lam of A[q][lam] * g*sigma_lam, for q |- n.

    The pulled-back c_p is lead * c_p plus terms of degree p in c_1..c_{p-1},
    with lead D = 1 + (n+1)m for p = 1 and 1 otherwise, so the Gauss
    substitution inverts triangularly over Z in the scaled classes D^p c_p.
    Each subbundle monomial s^a is (-1)^n chern_s_to_schubert(a), free of m.
    """
    sign = -1 if n % 2 else 1
    d = 1 + (n + 1) * m_value
    inverse: dict[int, ChernPoly] = {}
    for p in range(1, n + 1):
        pulled = gauss_pullback_chern(n, p).specialize_m(m_value)
        lead = pulled.coeff((p,)).constant_value()
        if lead != (d if p == 1 else 1):
            raise RuntimeError(f"Gauss inverse n={n} m={m_value}: the pulled-back c{p} has lead {lead}")
        lower = substitute(pulled - cmono((p,), lead), inverse.__getitem__, variables="s")
        inverse[p] = cvar(p, "s") * (d**p // lead) - lower
    table = {}
    for q in enumerate_partitions(n):
        in_s = math.prod((inverse[part] for part in q), start=ChernPoly.one("s"))
        table[q] = SchubertExpr(
            (lam, sign * k * coeff.constant_value())
            for mono, coeff in in_s.terms.items()
            for lam, k in chern_s_to_schubert(mono.parts).terms.items()
        )
    return table


def _homogeneous_vertices(n: int, m_value: int) -> list[tuple[int, tuple[int, ...]]]:
    """Vertices of the simplex cut out by the pulled-back Schubert classes.

    Vertex lam, in enumerate_partitions(n) order, is where every g*sigma_mu
    but g*sigma_lam vanishes, so its ratio coordinates are
    A[q][lam] / A[1^n][lam], returned as (L, L*v) with L = (-1)^n D^n A[1^n][lam]
    = f^lam > 0, the number of standard tableaux of shape lam.
    """
    sign = -1 if n % 2 else 1
    table = _chern_in_schubert(n, m_value)
    ones = table[Partition([1] * n)]
    coords = ratio_coordinates(n)
    return [
        (sign * ones.coeff(lam), tuple(sign * table[q].coeff(lam) for q in coords))
        for lam in enumerate_partitions(n)
    ]


def schubert_vertices(n: int, m_value: int) -> list[tuple[Fraction, ...]]:
    """_homogeneous_vertices as rational points."""
    return [tuple(Fraction(x, L) for x in w) for L, w in _homogeneous_vertices(n, m_value)]


class LpResult(NamedTuple):
    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    ray: tuple[Fraction, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None


def lp_optimize(
    constraints: list[RatioInequality], objective, direction: str
) -> LpResult:
    """Optimize a linear functional of the ratio coordinates exactly.

    Coordinates are free, so each splits into a difference of two
    nonnegative variables before the simplex call.
    """
    if not constraints:
        raise ValueError("empty constraint system")
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    k = len(constraints[0].coeffs)
    objective = tuple(Fraction(v) for v in objective)
    if len(objective) != k:
        raise ValueError("objective length does not match coordinate count")
    goal = objective if direction == "max" else tuple(-v for v in objective)
    matrix = []
    rhs = []
    for row in constraints:
        if len(row.coeffs) != k:
            raise ValueError("constraint rows use different coordinate spaces")
        matrix.append([-v for v in row.coeffs] + list(row.coeffs))
        rhs.append(row.constant)
    cost = list(goal) + [-v for v in goal]
    res = simplex_max(matrix, rhs, cost)
    if res.status == "optimal":
        point = tuple(res.x[q] - res.x[k + q] for q in range(k))
        value = res.value if direction == "max" else -res.value
        return LpResult("optimal", value=value, point=point)
    if res.status == "unbounded":
        ray = tuple(res.ray[q] - res.ray[k + q] for q in range(k))
        return LpResult("unbounded", ray=ray)
    return LpResult("infeasible", farkas=res.farkas)


@functools.lru_cache(maxsize=1)
def _simplex_vertices(rows: tuple[RatioInequality, ...], m_value: int):
    """_homogeneous_vertices at m_value, checked to be the vertices of the rows' polytope.

    (a) Every row is >= 0 at every vertex (L, w), read off the int
    L*constant + sum c*w, so the simplex lies in the polytope.  (b) For each
    vertex some row vanishes at all the others and is positive there; it is
    a positive multiple of the vertex's barycentric coordinate (so the
    vertices are affinely independent), and the polytope lies in the simplex.
    Rows from build_polytope always pass: a failure contradicts Schur
    positivity, so it is a generator bug and raises RuntimeError naming the
    vertex.  The last row set is cached, so bounds and chi check it once.
    """
    n = rows[0].n
    vertices = _homogeneous_vertices(n, m_value)
    partitions = enumerate_partitions(n)
    where = f"polytope guard n={n} m={m_value}"
    facets = set()
    for r in rows:
        vals = [L * r.constant + sum(c * x for c, x in zip(r.coeffs, w)) for L, w in vertices]
        for lam, x in zip(partitions, vals):
            if x < 0:
                raise RuntimeError(f"{where}: a row is negative at the s{_label(lam)} vertex")
        support = [j for j, x in enumerate(vals) if x]
        if len(support) == 1:
            facets.update(support)
    for j, lam in enumerate(partitions):
        if j not in facets:
            raise RuntimeError(f"{where}: no row is the s{_label(lam)} facet")
    return vertices


class CoordinateBound(NamedTuple):
    partition: Partition
    minimum: Fraction
    maximum: Fraction


class BoundsCertificate(NamedTuple):
    n: int
    m_value: int
    mode: str
    coordinates: tuple[CoordinateBound, ...]


def _extremes(objective, vertices, shift=0) -> tuple[Fraction, Fraction]:
    values = [Fraction(shift * L + sum(c * x for c, x in zip(objective, w)), L) for L, w in vertices]
    return min(values), max(values)


def boundedness_certificate(
    rows: list[RatioInequality], m_value: int, mode: str = GENERAL_TYPE
) -> BoundsCertificate:
    """Exact min and max of every ratio coordinate over the polytope.

    `rows` is the output of build_polytope at the same m and mode.  The
    polytope is the simplex checked by _simplex_vertices, so each bound is
    attained at one of its vertices.
    """
    n = rows[0].n
    vertices = _simplex_vertices(tuple(rows), m_value)
    coords = ratio_coordinates(n)
    bounds = tuple(CoordinateBound(q, *_extremes([int(p == q) for p in coords], vertices)) for q in coords)
    return BoundsCertificate(n, m_value, mode, bounds)


class ChiBounds(NamedTuple):
    d1: Fraction
    d2: Fraction
    d3: Fraction
    d4: Fraction


def chi_bounds(rows: list[RatioInequality], m_value: int) -> ChiBounds:
    """Bounds for the Euler number and the structure-sheaf characteristic.

    Both are measured against the n-th power of the (anti)canonical class;
    the conversion factor c_1^n / K^n is (-1)^n in both modes.  d1, d2 bound
    the top Chern class; d3, d4 bound the degree-n piece of the Todd class.
    `rows` is the output of build_polytope at m_value; the bounds are read
    off the vertices as in boundedness_certificate.
    """
    n = rows[0].n
    vertices = _simplex_vertices(tuple(rows), m_value)
    coords = ratio_coordinates(n)
    sign = -1 if n % 2 else 1
    top = Partition([n])
    top_obj = tuple(sign if q == top else 0 for q in coords)

    todd = chi_structure_sheaf_functional(n)
    todd_vals = {mono.parts: coeff.constant_value() for mono, coeff in todd.terms.items()}
    todd_obj = tuple(sign * todd_vals.get(q, 0) for q in coords)
    todd_shift = sign * todd_vals.get(Partition([1] * n), 0)
    return ChiBounds(*_extremes(top_obj, vertices), *_extremes(todd_obj, vertices, todd_shift))
