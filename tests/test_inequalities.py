from fractions import Fraction

import pytest

import chernbounds.inequalities
from chernbounds import (
    Partition,
    cmono,
    comparison_inequalities,
    effective_inequality,
    enumerate_partitions,
    gauss_pullback_chern,
    generate_all,
    schubert_class_inequality,
    specialize,
    substitute,
    upper_inequality,
)
from chernbounds.inequalities import _gauss_product
from chernbounds.mpoly import MPoly


def mp(*coeffs):
    # ascending powers of m
    return MPoly(coeffs)


def g(n, p):
    return gauss_pullback_chern(n, p)


def test_effective_n2():
    ineq = effective_inequality((2,), 2)
    assert ineq.lhs == cmono([1, 1], mp(0, 2, 3)) + cmono([2])
    assert ineq.provenance.kind == "effective"
    assert ineq.provenance.a == (2,)
    assert ineq.m_value is None
    assert ineq.relation == ">=0"

    square = effective_inequality((1, 1), 2)
    assert square.lhs == cmono([1, 1], mp(1, 6, 9))


def test_effective_sign_alternates():
    # odd dimension flips the product
    ineq = effective_inequality((3,), 3)
    assert ineq.lhs == -g(3, 3)
    even = effective_inequality((4,), 4)
    assert even.lhs == g(4, 4)


def test_gauss_product_is_the_substituted_monomial():
    for n in range(1, 7):
        for a in enumerate_partitions(n):
            want = substitute(cmono(a), lambda i: gauss_pullback_chern(n, i), variables="x")
            assert _gauss_product(a, n) == want, (n, a)


def _doubled(monkeypatch, name):
    real = getattr(chernbounds.inequalities, name)
    monkeypatch.setattr(chernbounds.inequalities, name, lambda a: real(a) * 2)


def test_effective_route_disagreement_names_the_partition(monkeypatch):
    _doubled(monkeypatch, "schubert_class_in_chern_s")
    with pytest.raises(RuntimeError, match=r"^effective family n=4: routes disagree for \(2,1,1\)$"):
        effective_inequality((2, 1, 1), 4)


def test_schubert_class_route_disagreement_names_the_partition(monkeypatch):
    _doubled(monkeypatch, "schubert_class_in_chern_s_dual")
    with pytest.raises(RuntimeError, match=r"^schubert-class family n=4: routes disagree for \(2,2\)$"):
        schubert_class_inequality((2, 2), 4)


def test_upper_n2():
    ineq = upper_inequality((2,), 2)
    assert ineq.lhs == cmono([1, 1], mp(1, 4, 6)) + cmono([2], -1)


def test_upper_is_top_minus_product():
    ineq = upper_inequality((2, 1), 3)
    top = cmono([1, 1, 1], mp(1, 4) ** 3)
    assert ineq.lhs == -(top - g(3, 2) * g(3, 1))


def test_comparison_n3_members():
    found = {(i.provenance.a, i.provenance.b): i for i in comparison_inequalities(3)}
    key = (Partition((2, 1)), Partition((3,)))
    assert key in found
    assert found[key].lhs == -(g(3, 2) * g(3, 1) - g(3, 3))
    key2 = (Partition((1, 1, 1)), Partition((2, 1)))
    assert key2 in found
    assert found[key2].lhs == -(g(3, 1) ** 3 - g(3, 2) * g(3, 1))
    # the non effective direction is absent
    assert (Partition((3,)), Partition((2, 1))) not in found


def test_comparison_sandwich_left_half():
    found = {(i.provenance.a, i.provenance.b): i for i in comparison_inequalities(3)}
    lhs = found[(Partition((2, 1)), Partition((3,)))].lhs
    expect = (
        cmono([1, 1, 1], mp(0, -3, -15, -20))
        + cmono([2, 1], mp(-1, -2))
        + cmono([3])
    )
    assert lhs == expect


def test_generate_all_n2_exact_list():
    items = generate_all(2)
    assert [(i.provenance.kind, tuple(i.provenance.a)) for i in items] == [
        ("effective", (2,)),
        ("effective", (1, 1)),
        ("upper", (2,)),
    ]
    # the upper bound absorbed both the comparison and the schubert route
    assert all(i.n == 2 and i.m_value is None for i in items)


def test_generate_all_dedup_prefers_comparisons():
    items = generate_all(4)
    by_kind = {}
    for i in items:
        by_kind.setdefault(i.provenance.kind, []).append(i.provenance)
    pairs = {(tuple(p.a), tuple(p.b)) for p in by_kind["comparison"]}
    assert ((2, 2), (3, 1)) in pairs
    assert ((3, 1), (4,)) in pairs
    # those two lhs match schubert classes, so no schubert-class rows for them
    sc = {tuple(p.a) for p in by_kind.get("schubert-class", [])}
    assert (2, 2) not in sc
    assert (2, 1, 1) not in sc


def test_schubert_class_equals_comparison_lhs():
    ineq = schubert_class_inequality((2, 2), 4)
    assert ineq.lhs == g(4, 2) ** 2 - g(4, 1) * g(4, 3)
    ineq2 = schubert_class_inequality((2, 1, 1), 4)
    assert ineq2.lhs == g(4, 1) * g(4, 3) - g(4, 4)


def test_schubert_class_n5_example_symbolic():
    ineq = schubert_class_inequality((3, 2), 5)
    expect = (
        cmono([1, 1, 1, 1, 1], mp(0, 0, -15, -120, -350, -420))
        + cmono([2, 1, 1, 1], mp(0, -6, -18, 8))
        + cmono([3, 1, 1], mp(1, 14, 33))
        + cmono([2, 2, 1], mp(-1, -2))
        + cmono([4, 1], mp(-1, -6))
        + cmono([3, 2], mp(1))
    )
    assert ineq.lhs == expect


def test_schubert_class_n5_example_at_m1():
    ineq = specialize(schubert_class_inequality((3, 2), 5), 1)
    expect = (
        cmono([1, 1, 1, 1, 1], -905)
        + cmono([2, 1, 1, 1], -16)
        + cmono([3, 1, 1], 48)
        + cmono([2, 2, 1], -3)
        + cmono([4, 1], -7)
        + cmono([3, 2], 1)
    )
    assert ineq.lhs == expect
    assert ineq.m_value == 1


def test_specialize_reduces_content():
    square = effective_inequality((1, 1), 2)
    at1 = specialize(square, 1)
    assert at1.lhs == cmono([1, 1], 1)
    assert square.lhs.specialize_m(1) == cmono([1, 1], 16)
    assert at1.m_value == 1


def test_specialize_rejects_zero():
    with pytest.raises(ValueError):
        specialize(effective_inequality((2,), 2), 0)


def test_trivial_upper_is_dropped():
    assert upper_inequality((1, 1), 2).is_trivial()
    assert not any(i.is_trivial() for i in generate_all(3))


def test_weight_validation():
    with pytest.raises(ValueError):
        effective_inequality((2, 1), 2)
    with pytest.raises(ValueError):
        generate_all(1)


def test_generate_all_without_comparisons_is_smaller():
    full = generate_all(4)
    plain = generate_all(4, include_comparisons=False)
    assert len(plain) <= len(full)
    kinds = {i.provenance.kind for i in plain}
    assert "comparison" not in kinds
    # schubert-class rows reappear once comparisons stop absorbing them
    assert (2, 2) in {tuple(i.provenance.a) for i in plain if i.provenance.kind == "schubert-class"}


def test_pipeline_coefficients_stay_int():
    # integers stay ints until specialize divides by the content
    polys = [gauss_pullback_chern(n, p) for n in range(1, 7) for p in range(n + 1)]
    polys += [ineq.lhs for ineq in generate_all(4)]
    for poly in polys:
        for coeff in poly.terms.values():
            assert all(type(c) is int for c in coeff.coeffs), poly
