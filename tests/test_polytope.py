"""Polytope layer: exact intervals, independent feasibility witnesses.

Smooth hypersurfaces supply honest boundary data: their Chern numbers are
computed from the conormal sequence in oracles.py and must land inside
every generated halfspace, with the known extremal cases sitting exactly
on the boundary.
"""

import math
from fractions import Fraction

import pytest

import chernbounds.polytope
from chernbounds import (
    FANO,
    GENERAL_TYPE,
    Inequality,
    Partition,
    Provenance,
    RatioInequality,
    boundedness_certificate,
    build_polytope,
    chi_bounds,
    chi_structure_sheaf_functional,
    cmono,
    effective_inequality,
    enumerate_partitions,
    generate_all,
    lp_optimize,
    normalize_to_ratio,
    ratio_coordinates,
    rational_content,
    specialize,
)
from chernbounds.polytope import _chern_in_schubert, schubert_vertices

from oracles import HAVE_SCIPY, float_lp, hypersurface_chern_numbers


def interval(cert, parts):
    for bound in cert.coordinates:
        if bound.partition == Partition(parts):
            return bound.minimum, bound.maximum
    raise AssertionError(f"coordinate {parts} missing")


def ratio_point(n, degree):
    """Chern ratios of a degree-d hypersurface, aligned with the coordinates."""
    numbers = hypersurface_chern_numbers(n, degree)
    ones = numbers[(1,) * n]
    return [Fraction(numbers[tuple(q)], ones) for q in ratio_coordinates(n)], numbers["m"]


def test_coordinates_order():
    assert ratio_coordinates(2) == [(2,)]
    assert ratio_coordinates(3) == [(2, 1), (3,)]
    assert ratio_coordinates(4) == [(2, 1, 1), (2, 2), (3, 1), (4,)]


def test_surface_interval_m1():
    cert = boundedness_certificate(build_polytope(2, 1), 1)
    assert interval(cert, (2,)) == (-5, 11)


def test_threefold_intervals_m1():
    cert = boundedness_certificate(build_polytope(3, 1), 1)
    assert interval(cert, (2, 1)) == (-9, 16)
    assert interval(cert, (3,)) == (-14, 86)


def test_fourfold_intervals_m1():
    cert = boundedness_certificate(build_polytope(4, 1), 1)
    assert interval(cert, (2, 1, 1)) == (-14, 22)
    assert interval(cert, (2, 2)) == (-140, 484)
    assert interval(cert, (3, 1)) == (-28, 134)
    assert interval(cert, (4,)) == (-91, 953)


def test_surface_interval_m5():
    cert = boundedness_certificate(build_polytope(2, 5), 5)
    assert interval(cert, (2,)) == (-85, 171)


def test_fano_surface_interval():
    cert = boundedness_certificate(build_polytope(2, -1, FANO), -1, FANO)
    assert interval(cert, (2,)) == (-1, 3)


def _satisfies(rows, point):
    return all(
        sum(c * t for c, t in zip(row.coeffs, point)) + row.constant >= 0
        for row in rows
    )


def test_hypersurfaces_are_feasible():
    # smooth hypersurfaces of degree >= n+3 have very ample K, so they must
    # satisfy the m=1 system and the system at any multiplier of K
    for n in (2, 3, 4):
        rows_m1 = build_polytope(n, 1)
        for degree in range(n + 3, n + 9):
            point, m_value = ratio_point(n, degree)
            assert m_value == degree - n - 2 >= 1
            assert _satisfies(rows_m1, point), (n, degree, 1)
            if m_value > 1:
                assert _satisfies(build_polytope(n, m_value), point), (n, degree)


def test_quintic_surface_attains_maximum():
    point, m_value = ratio_point(2, 5)
    assert m_value == 1
    assert point == [11]


def test_sextic_threefold_attains_both_maxima():
    point, m_value = ratio_point(3, 6)
    assert m_value == 1
    assert point == [16, 86]


def test_cubic_surface_attains_fano_maximum():
    point, m_value = ratio_point(2, 3)
    assert m_value == -1
    assert point == [3]
    for row in build_polytope(2, -1, FANO):
        value = sum(c * t for c, t in zip(row.coeffs, point)) + row.constant
        assert value >= 0


def test_ball_quotient_ratio_feasible_at_m5():
    # c2/c1^2 = 3 sits inside the m=5 surface polytope
    for row in build_polytope(2, 5):
        assert row.coeffs[0] * 3 + row.constant >= 0


def test_comparisons_never_change_bounds():
    # every comparison row is a nonnegative combination of the Schubert rows
    for n in range(2, 6):
        for m_value, mode in [(1, GENERAL_TYPE), (2, GENERAL_TYPE), (-1, FANO), (-2, FANO)]:
            full = build_polytope(n, m_value, mode, include_comparisons=True)
            plain = build_polytope(n, m_value, mode, include_comparisons=False)
            certs = [boundedness_certificate(rows, m_value, mode) for rows in (full, plain)]
            chis = [chi_bounds(rows, m_value) for rows in (full, plain)]
            assert certs[0] == certs[1] and chis[0] == chis[1], (n, m_value)


@pytest.mark.parametrize("m_value, mode", [(2, GENERAL_TYPE), (-1, FANO)])
def test_rows_are_primitive(m_value, mode):
    for n in range(2, 7):
        for row in build_polytope(n, m_value, mode):
            assert rational_content(row.coeffs + (row.constant,)) == 1, (n, row)


@pytest.mark.parametrize("m_value, mode", [(2, GENERAL_TYPE), (-1, FANO)])
def test_rows_and_specialized_coefficients_are_int(m_value, mode):
    for n in range(2, 7):
        for row in build_polytope(n, m_value, mode):
            assert all(type(v) is int for v in row.coeffs + (row.constant,)), (n, row)
        for ineq in generate_all(n):
            coeffs = specialize(ineq, m_value).lhs.terms.values()
            assert all(type(c.constant_value()) is int for c in coeffs), (n, ineq.provenance)


def test_normalize_refuses_non_integer_coefficient():
    half = cmono([2], Fraction(1, 2)) + cmono([1, 1], 1)
    ineq = Inequality(2, half, Provenance("effective", Partition((2,))), 1)
    with pytest.raises(ValueError, match="non-integer coefficient 1/2"):
        normalize_to_ratio(ineq, 1, GENERAL_TYPE)


def test_negative_constant_row_raises(monkeypatch):
    bad = Inequality(3, cmono([1, 1, 1]), Provenance("effective", Partition((2, 1))))
    monkeypatch.setattr(chernbounds.polytope, "generate_all", lambda n, include_comparisons: [bad])
    message = r"^polytope n=3 m=1: the effective \(2,1\) row is a negative constant$"
    with pytest.raises(RuntimeError, match=message):
        build_polytope(3, 1)


def test_chi_bounds_surface():
    res = chi_bounds(build_polytope(2, 1), 1)
    assert (res.d1, res.d2) == (-5, 11)
    assert (res.d3, res.d4) == (Fraction(-1, 3), 1)


def test_chi_bounds_quintic_inside():
    # chi_top/K^2 = 55/5 = 11 and chi(O)/K^2 = 1 for the quintic
    res = chi_bounds(build_polytope(2, 1), 1)
    numbers = hypersurface_chern_numbers(2, 5)
    k2 = numbers[(1, 1)]
    chi_top = Fraction(numbers[(2,)], k2)
    chi_o = Fraction(numbers[(1, 1)] + numbers[(2,)], 12) / k2
    assert res.d1 <= chi_top <= res.d2
    assert res.d3 <= chi_o <= res.d4


def test_normalize_requires_specialized_m():
    sym = effective_inequality((2,), 2)
    with pytest.raises(ValueError):
        normalize_to_ratio(sym, 1, GENERAL_TYPE)
    spec = specialize(sym, 1)
    with pytest.raises(ValueError):
        normalize_to_ratio(spec, 2, GENERAL_TYPE)
    row = normalize_to_ratio(spec, 1, GENERAL_TYPE)
    assert row.coeffs == (Fraction(1),)
    assert row.constant == Fraction(5)


def test_mode_validation():
    with pytest.raises(ValueError):
        build_polytope(2, -1, GENERAL_TYPE)
    with pytest.raises(ValueError):
        build_polytope(2, 1, FANO)
    with pytest.raises(ValueError):
        build_polytope(2, 1, "nonsense")


def test_constant_rows_are_dropped():
    rows = build_polytope(2, 1)
    assert len(rows) == 2
    assert all(any(row.coeffs) for row in rows)


def test_lp_direction_validation():
    rows = build_polytope(2, 1)
    with pytest.raises(ValueError):
        lp_optimize(rows, (1,), "sideways")
    with pytest.raises(ValueError):
        lp_optimize([], (1,), "max")


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
def test_float_solver_agrees_on_threefold():
    rows = build_polytope(3, 1)
    k = len(ratio_coordinates(3))
    for q in range(k):
        unit = [Fraction(1) if j == q else Fraction(0) for j in range(k)]
        for direction in ("min", "max"):
            exact = lp_optimize(rows, unit, direction)
            status, value = float_lp(rows, unit, direction)
            assert status == exact.status == "optimal"
            assert abs(float(exact.value) - value) < 1e-7


def _no_simplex(*args):
    raise AssertionError("exact simplex called on the vertex path")


def _lp_min_max(rows, objective):
    return lp_optimize(rows, objective, "min").value, lp_optimize(rows, objective, "max").value


def _lp_bounds(rows):
    k = len(rows[0].coeffs)
    return [_lp_min_max(rows, tuple(int(j == q) for j in range(k))) for q in range(k)]


def _bounds(cert):
    return [(b.minimum, b.maximum) for b in cert.coordinates]


def _lp_chi(rows):
    """d1..d4 by exact LP: the top-class and Todd objectives plus the Todd shift."""
    n = rows[0].n
    sign = -1 if n % 2 else 1
    coords = ratio_coordinates(n)
    functional = chi_structure_sheaf_functional(n)
    todd = {mono.parts: c.constant_value() for mono, c in functional.terms.items()}
    top_obj = tuple(sign * int(q == Partition([n])) for q in coords)
    todd_obj = tuple(sign * todd.get(q, 0) for q in coords)
    shift = sign * todd.get(Partition([1] * n), 0)
    d3, d4 = _lp_min_max(rows, todd_obj)
    return (*_lp_min_max(rows, top_obj), d3 + shift, d4 + shift)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m_value, mode", [(2, GENERAL_TYPE), (-2, FANO)])
def test_vertex_bounds_equal_lp_bounds(n, m_value, mode, monkeypatch):
    rows = build_polytope(n, m_value, mode)
    with monkeypatch.context() as patch:
        patch.setattr(chernbounds.polytope, "simplex_max", _no_simplex)
        cert = boundedness_certificate(rows, m_value, mode)
        chi = chi_bounds(rows, m_value)
    assert _bounds(cert) == _lp_bounds(rows)
    assert chi == _lp_chi(rows)


def _standard_tableaux(lam):
    conj = lam.conjugate()
    hooks = math.prod(lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))
    return math.factorial(lam.weight) // hooks


@pytest.mark.parametrize("m_value", [3, -1])
def test_ones_denominators_are_standard_tableau_counts(m_value):
    # c_1^n = sum over lam of (-1)^n f^lam / D^n g*sigma_lam, D = 1 + (n+1)m;
    # the table is scaled by D^n, so its 1^n row is (-1)^n f^lam exactly
    for n in range(2, 9):
        ones = _chern_in_schubert(n, m_value)[Partition([1] * n)]
        expected = {lam: (-1) ** n * _standard_tableaux(lam) for lam in enumerate_partitions(n)}
        assert ones.terms == expected


def test_vertex_cut_off_raises():
    vertices = schubert_vertices(3, 1)
    assert max(v[1] for v in vertices) == vertices[2][1] == 86
    # t[3] <= 85 cuts off the s(1,1,1) vertex, where t[3] is largest
    cut = build_polytope(3, 1) + [RatioInequality(3, (Fraction(0), Fraction(-1)), Fraction(85))]
    message = r"polytope guard n=3 m=1: a row is negative at the s\(1,1,1\) vertex"
    with pytest.raises(RuntimeError, match=message):
        boundedness_certificate(cut, 1)
    with pytest.raises(RuntimeError, match=message):
        chi_bounds(cut, 1)


def test_missing_schubert_row_raises():
    rows = build_polytope(3, 1)
    vertices = schubert_vertices(3, 1)

    def support(row):
        return [row.constant + sum(c * x for c, x in zip(row.coeffs, v)) != 0 for v in vertices]

    # drop the facet opposite the first vertex, s(3): the row that is nonzero only there
    facet = next(r for r in rows if support(r) == [True] + [False] * (len(vertices) - 1))
    reduced = [r for r in rows if r != facet]
    message = r"polytope guard n=3 m=1: no row is the s\(3\) facet"
    with pytest.raises(RuntimeError, match=message):
        boundedness_certificate(reduced, 1)
    with pytest.raises(RuntimeError, match=message):
        chi_bounds(reduced, 1)
