from fractions import Fraction

import pytest

from chernbounds.chern import cmono
from chernbounds.todd import (
    ToddPolynomial,
    chi_structure_sheaf_functional,
    log_todd_series,
    todd_components,
    todd_polynomial,
)

from oracles import (
    chern_poly_from_roots,
    hypersurface_chern_numbers,
    todd_class_from_roots,
)


def test_pinned_low_degrees():
    assert todd_components(1)[1] == cmono([1], Fraction(1, 2))
    assert todd_components(2)[2] == (
        cmono([1, 1], Fraction(1, 12)) + cmono([2], Fraction(1, 12))
    )
    assert todd_components(3)[3] == cmono([2, 1], Fraction(1, 24))
    assert todd_components(4)[4] == (
        cmono([1, 1, 1, 1], Fraction(-1, 720))
        + cmono([2, 1, 1], Fraction(4, 720))
        + cmono([2, 2], Fraction(3, 720))
        + cmono([3, 1], Fraction(1, 720))
        + cmono([4], Fraction(-1, 720))
    )


def test_unit_and_grading():
    comps = todd_components(4)
    assert comps[0] == cmono([], 1)
    for d, comp in enumerate(comps):
        for mono in comp.terms:
            assert mono.degree == d


def test_components_list_is_fresh():
    want = todd_components(4)[4]
    comps = todd_components(4)
    comps[4] = comps[0]
    comps.append(comps[0])
    again = todd_components(4)
    assert len(again) == 5
    assert again[4] == want


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_roots_oracle(d):
    # substitute c_i = e_i(x_1..x_d) and compare against the product
    # of the one-variable series over explicit roots
    got = chern_poly_from_roots(todd_components(d)[d], d)
    want = todd_class_from_roots(d)
    assert got == want


def test_log_series_head():
    l = log_todd_series(4)
    assert l[1] == Fraction(1, 2)
    assert l[2] == Fraction(-1, 24)
    assert l[3] == 0
    assert l[4] == Fraction(1, 2880)


def test_todd_polynomial_wrapper():
    td = todd_polynomial(3)
    assert td.degree == 3
    assert td.body == todd_components(3)[3]
    assert td == ToddPolynomial(3, td.body)
    assert td != ToddPolynomial(2, td.body)
    assert "ToddPolynomial" in repr(td)


def test_chi_functional_matches_top_component():
    for n in range(1, 6):
        assert chi_structure_sheaf_functional(n) == todd_components(n)[n]


def _chi_of_hypersurface(n, degree):
    numbers = hypersurface_chern_numbers(n, degree)
    total = Fraction(0)
    for mono, coeff in chi_structure_sheaf_functional(n).terms.items():
        total += coeff.constant_value() * numbers[tuple(mono.parts)]
    return total


def test_chi_on_hypersurfaces():
    # quintic surface: p_g = 4, irregularity 0
    assert _chi_of_hypersurface(2, 5) == 5
    # sextic threefold: p_g = 5, chi = 1 - 5
    assert _chi_of_hypersurface(3, 6) == -4
    # quartic surface (K trivial): chi = 2
    assert _chi_of_hypersurface(2, 4) == 2
