from fractions import Fraction

import pytest

from chernbounds.partitions import (
    Partition,
    alphabet_compare,
    enumerate_partitions,
    hardy_ramanujan_estimate,
    partition_count,
)


def test_constructor_normalizes():
    assert Partition([3, 1, 0, 0]) == (3, 1)
    assert Partition(()) == ()
    assert Partition((2, 2)).weight == 4
    assert Partition((2, 2)).length == 2


def test_constructor_rejects_increasing():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_constructor_rejects_non_integers():
    with pytest.raises(TypeError):
        Partition((2.7, 1))
    with pytest.raises(TypeError):
        Partition((Fraction(2), 1))


def test_padded():
    assert Partition((3, 1)).padded(4) == (3, 1, 0, 0)
    assert Partition((3, 1)).padded(2) == (3, 1)


def test_conjugate_involution():
    assert Partition((3, 1)).conjugate() == (2, 1, 1)
    assert Partition((2, 2)).conjugate() == (2, 2)
    for lam in enumerate_partitions(7):
        assert lam.conjugate().conjugate() == lam
        assert lam.conjugate().weight == lam.weight


def test_enumeration_order_and_extremes():
    parts = enumerate_partitions(4)
    assert parts[0] == (4,)
    assert parts[-1] == (1, 1, 1, 1)
    assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # strictly descending in the alphabet order
    for a, b in zip(parts, parts[1:]):
        assert alphabet_compare(a, b) > 0


def test_alphabet_compare_is_a_total_order():
    parts = enumerate_partitions(6)
    for i, a in enumerate(parts):
        assert alphabet_compare(a, a) == 0
        for b in parts[i + 1 :]:
            assert alphabet_compare(a, b) > 0
            assert alphabet_compare(b, a) < 0


def test_count_matches_enumeration_through_40():
    for n in range(41):
        assert partition_count(n) == len(enumerate_partitions(n))


def test_count_known_values():
    assert partition_count(10) == 42
    assert partition_count(20) == 627
    assert partition_count(50) == 204226
    assert partition_count(100) == 190569292


def test_hardy_ramanujan_accuracy_improves():
    def rel_error(n):
        ratio = hardy_ramanujan_estimate(n) / partition_count(n)
        return abs(ratio - 1)

    assert rel_error(100) < Fraction(1, 10)
    assert rel_error(200) < rel_error(100)
