from fractions import Fraction

import pytest

from chernbounds.chern import (
    ChernPoly,
    banded_determinant,
    chern_s_to_schubert,
    cmono,
    cvar,
    determinant_recursion_check,
    gauss_pullback_chern,
    schubert_class_in_chern_s,
    schubert_class_in_chern_s_dual,
    special_to_chern_s,
    substitute,
    tangent_twisted_chern,
    twisted_chern,
)
from chernbounds.mpoly import MPoly
from chernbounds.partitions import enumerate_partitions
from chernbounds.schubert import sigma


def mp(*coeffs):
    # ascending powers of m
    return MPoly(coeffs)


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        ChernPoly({(1,): 1, (2,): 1})
    # same degree, fine
    ChernPoly({(2,): 1, (1, 1): 1})


def test_pairs_merge_repeated_monomials():
    p = ChernPoly([((2,), 1), ((1, 1), mp(0, 1)), ((2,), 2)])
    assert p.terms == cmono([2], 3).terms | cmono([1, 1], mp(0, 1)).terms
    assert ChernPoly([((2,), mp(1, 1)), ((2,), mp(-1, -1))], "s").is_zero()
    # a cancelled monomial leaves no degree behind
    assert ChernPoly([((2,), 1), ((1,), 1), ((2,), -1)]) == cvar(1)
    # a mapping is still accepted
    assert ChernPoly({(2,): 3}) == cmono([2], 3)


def test_pairs_keep_homogeneity_check():
    with pytest.raises(ValueError, match="inhomogeneous"):
        ChernPoly([((1,), 1), ((2,), 1)])


def test_cmono_and_arithmetic():
    p = cmono([2, 1], 3) - cvar(1) * cvar(2)
    assert p == cmono([2, 1], 2)
    assert (cvar(1) ** 2).coeff((1, 1)) == MPoly.const(1)
    assert cmono([1], mp(0, 1)).specialize_m(7) == cmono([1], 7)


def test_content_and_integrality():
    p = cmono([2], 4) + cmono([1, 1], 6)
    assert p.content() == 2
    assert p.is_integral()
    assert not cmono([2], Fraction(1, 3)).is_integral()


def test_twisted_chern_rank3():
    expect = (
        cmono([2], 1, "e")
        + cmono([1], 2, "e", line_power=1)
        + cmono([], 3, "e", line_power=2)
    )
    assert twisted_chern(3, 2) == expect


def test_twisted_chern_binomials():
    got = twisted_chern(5, 1)
    assert got.coeff((1,)) == MPoly.const(1)
    assert got.coeff((), line_power=1) == MPoly.const(5)


def test_tangent_twisted_chern_values():
    assert tangent_twisted_chern(3, 3) == (
        cmono([1, 1, 1], mp(0, 0, 1, 1)) + cmono([2, 1], mp(0, 1)) + cmono([3])
    )
    assert tangent_twisted_chern(4, 3) == (
        cmono([1, 1, 1], mp(0, 0, 3, 4)) + cmono([2, 1], mp(0, 2)) + cmono([3])
    )


def test_gauss_pullback_low_dimensions():
    assert gauss_pullback_chern(2, 1) == cmono([1], mp(1, 3))
    assert gauss_pullback_chern(2, 2) == cmono([1, 1], mp(0, 2, 3)) + cmono([2])
    assert gauss_pullback_chern(3, 1) == cmono([1], mp(1, 4))
    assert gauss_pullback_chern(3, 2) == cmono([1, 1], mp(0, 3, 6)) + cmono([2])
    assert gauss_pullback_chern(3, 3) == (
        cmono([1, 1, 1], mp(0, 0, 3, 4)) + cmono([2, 1], mp(0, 2)) + cmono([3])
    )
    assert gauss_pullback_chern(4, 4) == (
        cmono([1, 1, 1, 1], mp(0, 0, 0, 4, 5))
        + cmono([2, 1, 1], mp(0, 0, 3))
        + cmono([3, 1], mp(0, 2))
        + cmono([4])
    )


def test_gauss_pullback_recurrence():
    for n in range(2, 7):
        for p in range(1, n + 1):
            want = tangent_twisted_chern(n, p) + cmono([1], mp(0, 1)) * tangent_twisted_chern(n, p - 1)
            assert gauss_pullback_chern(n, p) == want


def test_special_class_displays():
    assert special_to_chern_s(1) == cmono([1], -1, "s")
    assert special_to_chern_s(2) == cmono([1, 1], 1, "s") + cmono([2], -1, "s")
    assert special_to_chern_s(3) == (
        cmono([1, 1, 1], -1, "s") + cmono([2, 1], 2, "s") + cmono([3], -1, "s")
    )
    assert special_to_chern_s(4) == (
        cmono([1, 1, 1, 1], 1, "s")
        + cmono([2, 1, 1], -3, "s")
        + cmono([2, 2], 1, "s")
        + cmono([3, 1], 2, "s")
        + cmono([4], -1, "s")
    )


def test_series_inversion_cancels_through_degree_8():
    for w in range(1, 9):
        total = ChernPoly.zero("s")
        for j in range(w + 1):
            factor = cmono([j], 1, "s") if j else ChernPoly.one("s")
            total = total + special_to_chern_s(w - j) * factor
        assert total.is_zero(), w


def test_chern_s_to_schubert():
    assert chern_s_to_schubert((2,)) == sigma(1, 1)
    assert chern_s_to_schubert((1, 1)) == sigma(2) + sigma(1, 1)
    assert chern_s_to_schubert((2, 1)) == sigma(2, 1) + sigma(1, 1, 1)
    assert chern_s_to_schubert((3,)) == sigma(1, 1, 1)
    assert chern_s_to_schubert([2, 1]) == sigma(2, 1) + sigma(1, 1, 1)


def test_schubert_class_two_routes_agree():
    for w in range(1, 7):
        for lam in enumerate_partitions(w):
            assert schubert_class_in_chern_s(lam) == schubert_class_in_chern_s_dual(lam), lam


def test_single_column_class_is_a_chern_variable():
    # sigma_{1^p} = (-1)^p c_p of the subbundle
    for p in range(1, 6):
        got = schubert_class_in_chern_s([1] * p)
        assert got == cmono([p], (-1) ** p, "s")


def test_banded_determinant_small():
    assert banded_determinant(1) == cmono([1], 1, "a")
    assert banded_determinant(2) == cmono([1, 1], 1, "a") + cmono([2], -1, "a")
    assert banded_determinant(3) == (
        cmono([1, 1, 1], 1, "a") + cmono([2, 1], -2, "a") + cmono([3], 1, "a")
    )


def test_determinant_recursion_through_8():
    for n in range(1, 9):
        assert determinant_recursion_check(n), n


def test_giambelli_bridge():
    # the one-row class equals the banded determinant at a_i = (-1)^i c_i
    for w in range(1, 7):
        image = substitute(
            banded_determinant(w),
            lambda i: cmono([i], (-1) ** i, "s"),
            variables="s",
        )
        assert image == special_to_chern_s(w), w


def test_substitute_scaling():
    doubled = substitute(cmono([1, 1]), lambda i: cmono([i], 2))
    assert doubled == cmono([1, 1], 4)


def test_substitute_rejects_another_variables_tag():
    with pytest.raises(ValueError, match="mixed variable tags"):
        substitute(cmono([1, 1]), lambda i: cmono([i], 1, "s"), variables="x")


def test_substitute_requires_line_replacement():
    with pytest.raises(ValueError):
        substitute(twisted_chern(3, 2), lambda i: cmono([i]))
