"""Convex polytope of Chern ratios cut out by the generated inequalities.

Coordinates are the ratios c_q / c_1^n indexed by weight-n partitions q
other than the all-ones one, listed in ascending alphabet order.  After
specializing m, each inequality divides by c_1^n; c_1^n has sign (-1)^n for
general type and +1 for Fano, so rows are multiplied by that sign to keep
the >= 0 direction.  Every row is a nonnegative combination of the
pulled-back Schubert rows, so the polytope is the simplex whose vertices
schubert_vertices writes down in closed form.  Bounds are the min and max
over those vertices, after a two-part guard (_simplex_vertices) proves that
the rows cut out exactly that simplex; a guard failure is a generator bug and
raises RuntimeError.  lp_optimize solves exact rational LPs over arbitrary
row sets.
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
    coeffs: tuple[Fraction, ...]  # aligned with ratio_coordinates(n)
    constant: Fraction

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
    """Divide a specialized inequality by c_1^n and fix the direction."""
    if ineq.m_value != m_value:
        raise ValueError("inequality must be specialized at the given m")
    sign = _mode_sign(ineq.n, m_value, mode)
    ones = Partition([1] * ineq.n)
    vals: dict[Partition, Fraction] = {}
    for mono, coeff in ineq.lhs.terms.items():
        if mono.line_power:
            raise ValueError("unexpected twist symbol in inequality")
        if not coeff.is_constant():
            raise ValueError("coefficients still symbolic, specialize first")
        vals[mono.parts] = coeff.constant_value()
    coords = ratio_coordinates(ineq.n)
    row = tuple(sign * vals.get(q, Fraction(0)) for q in coords)
    const = sign * vals.get(ones, Fraction(0))
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
    rows: list[RatioInequality] = []
    seen = set()
    for ineq in generate_all(n, include_comparisons):
        ratio = normalize_to_ratio(specialize(ineq, m_value), m_value, mode)
        if ratio.is_constant_only():
            if ratio.constant < 0:
                where = f"polytope n={n} m={m_value}"
                label = f"{ineq.provenance.kind} {_label(ineq.provenance.a)}"
                raise RuntimeError(f"{where}: the {label} row is a negative constant")
            continue
        if ratio not in seen:
            seen.add(ratio)
            rows.append(ratio)
    return rows


def _chern_in_schubert(n: int, m_value: int) -> dict[Partition, dict[Partition, Fraction]]:
    """A[q][lam] with c_q = sum over lam of A[q][lam] * g*sigma_lam, for q |- n.

    The pulled-back c_p is a nonzero constant times c_p plus terms in
    c_1..c_{p-1}, so the Gauss substitution inverts triangularly at the
    numeric m.  Each subbundle monomial s^a is (-1)^n chern_s_to_schubert(a),
    which does not depend on m.
    """
    sign = -1 if n % 2 else 1
    inverse: dict[int, ChernPoly] = {}
    for p in range(1, n + 1):
        pulled = gauss_pullback_chern(n, p).specialize_m(m_value)
        lead = pulled.coeff((p,)).constant_value()
        lower = substitute(pulled - cmono((p,), lead), inverse.__getitem__, variables="s")
        inverse[p] = (cvar(p, "s") - lower) * Fraction(1, lead)
    table = {}
    for q in enumerate_partitions(n):
        in_s = math.prod((inverse[part] for part in q), start=ChernPoly.one("s"))
        row: dict[Partition, Fraction] = {}
        for mono, coeff in in_s.terms.items():
            for lam, k in chern_s_to_schubert(mono.parts).terms.items():
                row[lam] = row.get(lam, 0) + sign * k * coeff.constant_value()
        table[q] = row
    return table


def schubert_vertices(n: int, m_value: int) -> list[tuple[Fraction, ...]]:
    """Vertices of the simplex cut out by the pulled-back Schubert classes.

    Vertex lam, in enumerate_partitions(n) order, is where every g*sigma_mu
    but g*sigma_lam vanishes, so its ratio coordinates are
    A[q][lam] / A[1^n][lam].  The denominator is (-1)^n f^lam / D^n, with
    f^lam > 0 the number of standard tableaux of shape lam and
    D = 1 + (n+1)m != 0, so every vertex exists.
    """
    table = _chern_in_schubert(n, m_value)
    ones = table[Partition([1] * n)]
    coords = ratio_coordinates(n)
    return [
        tuple(Fraction(table[q].get(lam, 0)) / ones[lam] for q in coords)
        for lam in enumerate_partitions(n)
    ]


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
    """schubert_vertices at m_value, checked to be the vertices of the rows' polytope.

    (a) Every row is >= 0 at every vertex, so the simplex lies in the
    polytope.  (b) For each vertex some row vanishes at all the others and
    is positive there; that row is a positive multiple of the vertex's
    barycentric coordinate (which forces the vertices to be affinely
    independent), so the polytope lies in the simplex.  Rows from
    build_polytope always pass: a failure contradicts Schur positivity, so
    it is a generator bug and raises RuntimeError naming the vertex.  The
    last row set is cached, so bounds and chi on the same rows check it once.
    """
    n = rows[0].n
    vertices = schubert_vertices(n, m_value)
    partitions = enumerate_partitions(n)
    where = f"polytope guard n={n} m={m_value}"
    facets = set()
    for r in rows:
        vals = [r.constant + sum(c * x for c, x in zip(r.coeffs, v)) for v in vertices]
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


def _extremes(objective, vertices) -> tuple[Fraction, Fraction]:
    values = [sum(c * x for c, x in zip(objective, v)) for v in vertices]
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
    bounds = tuple(
        CoordinateBound(q, min(v[j] for v in vertices), max(v[j] for v in vertices))
        for j, q in enumerate(ratio_coordinates(n))
    )
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
    d3, d4 = _extremes(todd_obj, vertices)
    return ChiBounds(*_extremes(top_obj, vertices), d3 + todd_shift, d4 + todd_shift)
