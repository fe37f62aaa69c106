import re
from fractions import Fraction

import pytest

from chernbounds.partitions import Partition, enumerate_partitions
from chernbounds.schubert import (
    BoxSpec,
    SchubertExpr,
    dual_pairing,
    giambelli_matrix,
    is_effective,
    multiply,
    pieri_multiply,
    sigma,
    special_expansion,
)

from oracles import schur_product


def test_sigma_constructor():
    assert sigma(2, 1).coeff((2, 1)) == 1
    assert sigma().coeff(()) == 1
    assert (sigma(2) - sigma(2)).is_zero()


def test_constructors_reject_non_integers():
    with pytest.raises(TypeError):
        sigma(2.5)
    with pytest.raises(TypeError):
        SchubertExpr({(1,): Fraction(1, 2)})


def test_pairs_merge_repeated_partitions():
    e = SchubertExpr([((2, 1), 1), ((3,), 2), ((2, 1), 1)])
    assert e.terms == {(2, 1): 2, (3,): 2}
    assert SchubertExpr([((2,), 1), ((2,), -1)]).is_zero()
    assert SchubertExpr({(2,): 1}) == sigma(2)


def test_pair_coefficients_must_be_integers():
    with pytest.raises(TypeError):
        SchubertExpr([((1,), Fraction(1, 2))])
    with pytest.raises(TypeError):
        SchubertExpr([((1,), 1), ((1,), 1.0)])


def test_pieri_basic_products():
    assert pieri_multiply(sigma(1), 1) == sigma(2) + sigma(1, 1)
    assert pieri_multiply(sigma(2), 1) == sigma(3) + sigma(2, 1)
    assert pieri_multiply(sigma(1, 1), 1) == sigma(2, 1) + sigma(1, 1, 1)
    assert pieri_multiply(sigma(2, 1), 1) == sigma(3, 1) + sigma(2, 2) + sigma(2, 1, 1)
    assert pieri_multiply(sigma(2), 2) == sigma(4) + sigma(3, 1) + sigma(2, 2)


def test_multiply_known_table():
    assert multiply(sigma(2), sigma(1, 1)) == sigma(3, 1) + sigma(2, 1, 1)
    assert sigma(1) ** 2 == sigma(2) + sigma(1, 1)
    assert sigma(1) ** 3 == sigma(3) + 2 * sigma(2, 1) + sigma(1, 1, 1)
    assert multiply(sigma(2, 1), sigma(2, 1)) == (
        sigma(4, 2)
        + sigma(4, 1, 1)
        + sigma(3, 3)
        + 2 * sigma(3, 2, 1)
        + sigma(3, 1, 1, 1)
        + sigma(2, 2, 2)
        + sigma(2, 2, 1, 1)
    )


def test_multiply_agrees_with_tableau_oracle_weight_6():
    # complete sweep over all pairs of total weight <= 6
    shapes = [lam for w in range(1, 6) for lam in enumerate_partitions(w)]
    checked = 0
    for a in shapes:
        for b in shapes:
            if a.weight + b.weight > 6:
                continue
            got = multiply(sigma(*a), sigma(*b))
            want = schur_product(a, b, 6)
            assert dict(got.terms) == {
                Partition(k): v for k, v in want.items()
            }, f"disagreement at {a} * {b}"
            checked += 1
    assert checked == 80


def test_giambelli_matrix_entries():
    # entry (i, j) holds a_i + j - i
    assert giambelli_matrix(Partition((2, 1))) == [[2, 3], [0, 1]]
    assert giambelli_matrix(Partition((3, 2, 1))) == [[3, 4, 5], [1, 2, 3], [-1, 0, 1]]


def test_special_expansion_small_cases():
    assert special_expansion(Partition((1, 1))) == {(1, 1): 1, (2,): -1}
    assert special_expansion(Partition((2, 1))) == {(2, 1): 1, (3,): -1}
    assert special_expansion(Partition((2, 2))) == {(2, 2): 1, (3, 1): -1}


def test_special_expansion_reproduces_the_class():
    # resubstituting actual products of special classes recovers sigma_a
    for w in range(1, 7):
        for lam in enumerate_partitions(w):
            acc = SchubertExpr()
            for word, coeff in special_expansion(lam).items():
                term = sigma()
                for b in word:
                    term = pieri_multiply(term, b)
                acc = acc + coeff * term
            assert acc == sigma(*lam), lam


def test_effectivity_certificate():
    assert is_effective(sigma(1) ** 2 - sigma(1, 1))
    assert not is_effective(sigma(1, 1) - sigma(1) ** 2)
    assert not is_effective(sigma(2) - sigma(1, 1))


def test_power_gap_is_effective_through_8():
    for t in range(1, 9):
        gap = sigma(1) ** t - sigma(*([1] * t))
        assert is_effective(gap), t


def test_box_truncation():
    box = BoxSpec(2, 2)
    assert multiply(sigma(2), sigma(2), box) == sigma(2, 2)
    assert multiply(sigma(1), sigma(1), box) == sigma(2) + sigma(1, 1)
    # a box with at least two rows more than the factor
    assert multiply(sigma(1), sigma(1), box=BoxSpec(3, 3)) == sigma(2) + sigma(1, 1)
    assert pieri_multiply(sigma(2, 1), 1, BoxSpec(2, 3)) == sigma(3, 1) + sigma(2, 2)
    # same product without a box has three terms
    assert len(pieri_multiply(sigma(2, 1), 1).terms) == 3


def test_box_dimensions_must_be_positive():
    with pytest.raises(ValueError, match="box dimensions must be positive"):
        BoxSpec(0, 1)
    with pytest.raises(ValueError):
        BoxSpec(2, 0)
    assert repr(BoxSpec(2, 3)) == "BoxSpec(rows=2, cols=3)"


def test_pieri_outside_box_names_the_partition():
    with pytest.raises(ValueError, match=re.escape("Partition((3, 1)) does not fit in the box")):
        pieri_multiply(sigma(2) + sigma(3, 1), 1, BoxSpec(2, 2))


def test_box_fits_and_complement():
    box = BoxSpec(2, 3)
    assert box.fits(Partition((3, 2)))
    assert not box.fits(Partition((4,)))
    assert not box.fits(Partition((1, 1, 1)))
    assert box.complement(Partition((3, 1))) == (2,)
    assert box.complement(Partition(())) == (3, 3)


def _fitting(box):
    out = [Partition(())]
    for w in range(1, box.rows * box.cols + 1):
        out.extend(lam for lam in enumerate_partitions(w) if box.fits(lam))
    return out


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 2), (4, 2), (3, 3)])
def test_duality_table_is_kronecker_delta(rows, cols):
    box = BoxSpec(rows, cols)
    classes = _fitting(box)
    area = rows * cols
    for a in classes:
        for b in classes:
            if a.weight + b.weight != area:
                continue
            expect = 1 if b == box.complement(a) else 0
            assert dual_pairing(a, b, box) == expect, (a, b)
