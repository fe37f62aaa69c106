"""Diff the pipeline's exact output against pinned reference values.

Each section recomputes a block of the source derivation this package
mechanizes and compares, coefficient by coefficient, with the values pinned
here.  Everything is exact rational arithmetic, so a mismatch means the
pinned display contains a misprint; the computed column then carries the
corrected form.  Three displays in the dimension-4 section are known to
mismatch that way, every other pinned value agrees.
"""

from __future__ import annotations

from typing import NamedTuple

from .chern import (
    ChernPoly,
    banded_determinant,
    chern_s_to_schubert,
    cmono,
    cvar,
    determinant_recursion_check,
    gauss_pullback_chern,
    schubert_class_in_chern_s,
    special_to_chern_s,
    substitute,
    tangent_twisted_chern,
    twisted_chern,
)
from .inequalities import (
    comparison_inequalities,
    generate_all,
    specialize,
)
from .mpoly import M, MPoly
from .partitions import Partition, enumerate_partitions
from .render import render_chern, render_products, render_schubert
from .schubert import (
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


class CheckResult(NamedTuple):
    name: str
    matches: bool
    expected: str
    computed: str


def _cp(terms, variables: str = "x") -> ChernPoly:
    return ChernPoly(((parts, MPoly(c) if isinstance(c, tuple) else c) for parts, c in terms), variables)


def _render(obj) -> str:
    if isinstance(obj, ChernPoly):
        return render_chern(obj)
    if isinstance(obj, SchubertExpr):
        return render_schubert(obj)
    if isinstance(obj, tuple):
        return " ; ".join(_render(x) for x in obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, dict):
        return render_products(obj)
    return str(obj)


def _check(name: str, expected, computed) -> CheckResult:
    return CheckResult(name, expected == computed, _render(expected), _render(computed))


def _find(items, kind: str, a, b=None):
    pa = Partition(a)
    pb = Partition(b) if b is not None else None
    for ineq in items:
        prov = ineq.provenance
        if prov.kind == kind and prov.a == pa and prov.b == pb:
            return ineq
    raise KeyError(f"no {kind} inequality for {a!r}, {b!r}")


def _consistent(reduced: ChernPoly, factor: MPoly, full: ChernPoly, what: str):
    if reduced * factor != full:
        raise RuntimeError(f"reduced form inconsistent with pipeline for {what}")


# -- dimension 2 ------------------------------------------------------------


def section_n2() -> list[CheckResult]:
    checks = [
        _check(
            "twisted tangent class, p=1",
            _cp([((1,), (1, 2))]),
            tangent_twisted_chern(2, 1),
        ),
        _check(
            "pullback class, p=1",
            _cp([((1,), (1, 3))]),
            gauss_pullback_chern(2, 1),
        ),
        _check(
            "twisted tangent class, p=2",
            _cp([((1, 1), (0, 1, 1)), ((2,), 1)]),
            tangent_twisted_chern(2, 2),
        ),
        _check(
            "pullback class, p=2",
            _cp([((1, 1), (0, 2, 3)), ((2,), 1)]),
            gauss_pullback_chern(2, 2),
        ),
        _check(
            "one-column class (1,1) in subbundle classes",
            _cp([((2,), 1)], "s"),
            schubert_class_in_chern_s(Partition((1, 1))),
        ),
    ]
    items = generate_all(2)
    eff = _find(items, "effective", (2,))
    upper = _find(items, "upper", (2,))
    checks.append(
        _check(
            "second-class bounds, symbolic",
            (
                _cp([((1, 1), (0, 2, 3)), ((2,), 1)]),
                _cp([((1, 1), (1, 4, 6)), ((2,), -1)]),
            ),
            (eff.lhs, upper.lhs),
        )
    )
    checks.append(
        _check(
            "second-class bounds at m=1",
            (_cp([((1, 1), 5), ((2,), 1)]), _cp([((1, 1), 11), ((2,), -1)])),
            (specialize(eff, 1).lhs, specialize(upper, 1).lhs),
        )
    )
    return checks


# -- dimension 3 ------------------------------------------------------------


def section_n3() -> list[CheckResult]:
    checks = [
        _check(
            "pullback class, p=1",
            _cp([((1,), (1, 4))]),
            gauss_pullback_chern(3, 1),
        ),
        _check(
            "pullback class, p=2",
            _cp([((1, 1), (0, 3, 6)), ((2,), 1)]),
            gauss_pullback_chern(3, 2),
        ),
        _check(
            "twisted tangent class, p=3",
            _cp([((1, 1, 1), (0, 0, 1, 1)), ((2, 1), (0, 1)), ((3,), 1)]),
            tangent_twisted_chern(3, 3),
        ),
        _check(
            "pullback class, p=3",
            _cp([((1, 1, 1), (0, 0, 3, 4)), ((2, 1), (0, 2)), ((3,), 1)]),
            gauss_pullback_chern(3, 3),
        ),
        _check(
            "one-column class (1,1,1) in subbundle classes",
            _cp([((3,), -1)], "s"),
            schubert_class_in_chern_s(Partition((1, 1, 1))),
        ),
        _check(
            "product of first and one-column classes",
            SchubertExpr({(2, 1): 1, (1, 1, 1): 1}),
            multiply(sigma(1), sigma(1, 1)),
        ),
        _check(
            "cube dominates the mixed product",
            SchubertExpr({(3,): 1, (2, 1): 1}),
            sigma(1) ** 3 - multiply(sigma(1), sigma(1, 1)),
        ),
    ]
    comps = comparison_inequalities(3)
    mixed = _find(comps, "comparison", (1, 1, 1), (2, 1))
    checks.append(
        _check(
            "mixed product dominates the cube of the first class",
            _cp([((2, 1), (1, 4)), ((1, 1, 1), (-1, -9, -30, -40))]),
            mixed.lhs,
        )
    )
    lower = _find(comps, "comparison", (2, 1), (3,))
    items = generate_all(3)
    upper = _find(items, "effective", (3,))
    checks.append(
        _check(
            "third-class sandwich, symbolic",
            (
                _cp(
                    [
                        ((3,), 1),
                        ((2, 1), (-1, -2)),
                        ((1, 1, 1), (0, -3, -15, -20)),
                    ]
                ),
                _cp(
                    [
                        ((1, 1, 1), (0, 0, -3, -4)),
                        ((2, 1), (0, -2)),
                        ((3,), -1),
                    ]
                ),
            ),
            (lower.lhs, upper.lhs),
        )
    )
    return checks


# -- dimension 4 ------------------------------------------------------------


def section_n4() -> list[CheckResult]:
    # printed factored forms of the four pullback classes
    g1p = _cp([((1,), (1, 5))])
    g2p = _cp([((1, 1), (0, 4, 10)), ((2,), 1)])
    g3p = _cp([((1, 1, 1), (0, 0, 6, 10)), ((2, 1), (0, 3)), ((3,), 1)])
    g4p = _cp(
        [
            ((1, 1, 1, 1), (0, 0, 0, 4, 5)),
            ((2, 1, 1), (0, 0, 3)),
            ((3, 1), (0, 2)),
            ((4,), 1),
        ]
    )
    g2 = gauss_pullback_chern(4, 2)
    g3 = gauss_pullback_chern(4, 3)
    checks = [
        _check(
            "twisted tangent classes, p=1..4",
            (
                _cp([((1,), (1, 4))]),
                _cp([((1, 1), (0, 3, 6)), ((2,), 1)]),
                _cp([((1, 1, 1), (0, 0, 3, 4)), ((2, 1), (0, 2)), ((3,), 1)]),
                _cp(
                    [
                        ((1, 1, 1, 1), (0, 0, 0, 1, 1)),
                        ((2, 1, 1), (0, 0, 1)),
                        ((3, 1), (0, 1)),
                        ((4,), 1),
                    ]
                ),
            ),
            tuple(tangent_twisted_chern(4, p) for p in range(1, 5)),
        ),
        _check("pullback class, p=1", g1p, gauss_pullback_chern(4, 1)),
        _check("pullback class, p=2", g2p, g2),
        _check("pullback class, p=3", g3p, g3),
        _check("pullback class, p=4", g4p, gauss_pullback_chern(4, 4)),
        _check(
            "one-column class (1,1,1,1) in subbundle classes",
            _cp([((4,), 1)], "s"),
            schubert_class_in_chern_s(Partition((1, 1, 1, 1))),
        ),
        _check(
            "effectivity gap (2,1,1) over (2,2)",
            SchubertExpr({(3, 1): 1, (2, 1, 1): 1}),
            chern_s_to_schubert((2, 1, 1)) - chern_s_to_schubert((2, 2)),
        ),
        _check(
            "effectivity gap (2,2) over (3,1)",
            SchubertExpr({(2, 2): 1}),
            chern_s_to_schubert((2, 2)) - chern_s_to_schubert((3, 1)),
        ),
        _check(
            "effectivity gap (3,1) over (4)",
            SchubertExpr({(2, 1, 1): 1}),
            chern_s_to_schubert((3, 1)) - chern_s_to_schubert((4,)),
        ),
    ]

    items = generate_all(4)
    comps = comparison_inequalities(4)
    eff211 = _find(items, "effective", (2, 1, 1))
    up211 = _find(items, "upper", (2, 1, 1))
    eff31 = _find(items, "effective", (3, 1))
    up31 = _find(items, "upper", (3, 1))
    eff22 = _find(items, "effective", (2, 2))
    up22 = _find(items, "upper", (2, 2))
    eff4 = _find(items, "effective", (4,))
    up4 = _find(items, "upper", (4,))
    cmp_a = _find(comps, "comparison", (2, 1, 1), (2, 2))
    cmp_b = _find(comps, "comparison", (2, 2), (3, 1))
    cmp_c = _find(comps, "comparison", (3, 1), (4,))

    checks += [
        _check(
            "raw bounds from the (2,1,1) product",
            (g1p * g1p * g2p, g1p**4 - g1p * g1p * g2p),
            (eff211.lhs, up211.lhs),
        ),
        _check(
            "raw bounds from the (3,1) product",
            (g1p * g3p, g1p**4 - g1p * g3p),
            (eff31.lhs, up31.lhs),
        ),
        _check(
            "raw bounds from the (2,2) product",
            (g2p * g2p, g1p**4 - g2p * g2p),
            (eff22.lhs, up22.lhs),
        ),
        _check(
            "raw bounds from the (4) product",
            (g4p, g1p**4 - g4p),
            (eff4.lhs, up4.lhs),
        ),
        _check(
            "raw comparison (2,1,1) over (2,2)",
            g1p * g1p * g2p - g2p * g2p,
            cmp_a.lhs,
        ),
        _check(
            "raw comparison (2,2) over (3,1)",
            g2p * g2p - g1p * g3p,
            cmp_b.lhs,
        ),
        _check(
            "raw comparison (3,1) over (4)",
            g1p * g3p - g4p,
            cmp_c.lhs,
        ),
    ]

    # reduced forms: the common positive factor (a power of (5m+1)) divided out
    one_plus = MPoly((1, 5))
    red211_low = cmono((1, 1), 1) * g2
    red211_high = cmono((1, 1, 1, 1), one_plus**2) - red211_low
    _consistent(red211_low, one_plus**2, eff211.lhs, "(2,1,1) lower")
    _consistent(red211_high, one_plus**2, up211.lhs, "(2,1,1) upper")
    red31_low = cmono((1,), 1) * g3
    red31_high = cmono((1, 1, 1, 1), one_plus**3) - red31_low
    _consistent(red31_low, one_plus, eff31.lhs, "(3,1) lower")
    _consistent(red31_high, one_plus, up31.lhs, "(3,1) upper")

    checks += [
        _check(
            "shifted bounds for c1^2*c2",
            (
                _cp([((2, 1, 1), 1), ((1, 1, 1, 1), (2, 5))]),
                _cp([((1, 1, 1, 1), (1, 6, 15)), ((2, 1, 1), -1)]),
            ),
            (red211_low, red211_high),
        ),
        _check(
            "shifted bounds for c1*c3",
            (
                _cp(
                    [
                        ((3, 1), 1),
                        ((2, 1, 1), (0, 3)),
                        ((1, 1, 1, 1), (0, 0, 6, 10)),
                    ]
                ),
                _cp(
                    [
                        ((1, 1, 1, 1), (1, 15, 69, 115)),
                        ((2, 1, 1), (0, -3)),
                        ((3, 1), -1),
                    ]
                ),
            ),
            (red31_low, red31_high),
        ),
        _check(
            "shifted bounds for c2^2",
            (
                _cp(
                    [
                        ((2, 2), 1),
                        ((1, 1, 1, 1), (0, 0, 16, 80, 100)),
                        ((2, 1, 1), (0, 8, 20)),
                    ]
                ),
                _cp(
                    [
                        ((1, 1, 1, 1), (1, 20, 134, 420, 525)),
                        ((2, 1, 1), (0, -8, -20)),
                        ((2, 2), -1),
                    ]
                ),
            ),
            (eff22.lhs, up22.lhs),
        ),
        _check(
            "shifted bounds for the top class combination",
            (
                _cp(
                    [
                        ((1, 1, 1, 1), (0, 0, 0, 4, 5)),
                        ((2, 1, 1), (0, 0, 1)),
                        ((3, 1), (0, 2)),
                        ((4,), 1),
                    ]
                ),
                _cp(
                    [
                        ((1, 1, 1, 1), (1, 20, 150, 496, 620)),
                        ((2, 1, 1), (0, 0, -1)),
                        ((3, 1), (0, -2)),
                        ((4,), -1),
                    ]
                ),
            ),
            (eff4.lhs, up4.lhs),
        ),
        _check(
            "upper bound for c2^2 against c1^2*c2",
            _cp(
                [
                    ((1, 1, 1, 1), (0, 4, 34, 120, 150)),
                    ((2, 1, 1), (1, 2, 5)),
                    ((2, 2), -1),
                ]
            ),
            cmp_a.lhs,
        ),
        _check(
            "upper bound for c1*c3 against c2^2",
            _cp(
                [
                    ((1, 1, 1, 1), (0, 0, 10, 40, 50)),
                    ((2, 1, 1), (0, 5, 20)),
                    ((2, 2), 1),
                    ((3, 1), -1),
                ]
            ),
            cmp_b.lhs,
        ),
        _check(
            "upper bound for c4 against c1*c3",
            _cp(
                [
                    ((1, 1, 1, 1), (0, 0, 6, 36, 45)),
                    ((2, 1, 1), (0, 3, 12)),
                    ((3, 1), (1, 3)),
                    ((4,), -1),
                ]
            ),
            cmp_c.lhs,
        ),
    ]
    return checks


# -- dimension 5 ------------------------------------------------------------


def section_n5() -> list[CheckResult]:
    checks = [
        _check(
            "determinant form of the (3,2) class",
            sigma(3, 2),
            multiply(sigma(3), sigma(2)) - multiply(sigma(1), sigma(4)),
        ),
        _check(
            "(3,2) class in subbundle classes",
            _cp(
                [((3, 1, 1), 1), ((2, 2, 1), -1), ((3, 2), 1), ((4, 1), -1)],
                "s",
            ),
            schubert_class_in_chern_s(Partition((3, 2))),
        ),
        _check(
            "pullback classes, p=1..4",
            (
                _cp([((1,), (1, 6))]),
                _cp([((1, 1), (0, 5, 15)), ((2,), 1)]),
                _cp(
                    [
                        ((1, 1, 1), (0, 0, 10, 20)),
                        ((2, 1), (0, 4)),
                        ((3,), 1),
                    ]
                ),
                _cp(
                    [
                        ((1, 1, 1, 1), (0, 0, 0, 10, 15)),
                        ((2, 1, 1), (0, 0, 6)),
                        ((3, 1), (0, 3)),
                        ((4,), 1),
                    ]
                ),
            ),
            tuple(gauss_pullback_chern(5, p) for p in range(1, 5)),
        ),
    ]
    ineq = _find(generate_all(5), "schubert-class", (3, 2))
    checks.append(
        _check(
            "pulled-back (3,2) class, symbolic",
            _cp(
                [
                    ((1, 1, 1, 1, 1), (0, 0, -15, -120, -350, -420)),
                    ((2, 1, 1, 1), (0, -6, -18, 8)),
                    ((3, 1, 1), (1, 14, 33)),
                    ((2, 2, 1), (-1, -2)),
                    ((4, 1), (-1, -6)),
                    ((3, 2), 1),
                ]
            ),
            ineq.lhs,
        )
    )
    checks.append(
        _check(
            "pulled-back (3,2) class at m=1",
            _cp(
                [
                    ((1, 1, 1, 1, 1), -905),
                    ((2, 1, 1, 1), -16),
                    ((3, 1, 1), 48),
                    ((2, 2, 1), -3),
                    ((4, 1), -7),
                    ((3, 2), 1),
                ]
            ),
            specialize(ineq, 1).lhs,
        )
    )
    return checks


# -- pure Schubert calculus --------------------------------------------------


def _duality_table_ok(rows: int, cols: int) -> bool:
    box = BoxSpec(rows, cols)
    fitting = [
        p for w in range(rows * cols + 1) for p in enumerate_partitions(w) if box.fits(p)
    ]
    area = rows * cols
    for a in fitting:
        for b in fitting:
            if a.weight + b.weight != area:
                continue
            want = 1 if b == box.complement(a) else 0
            if dual_pairing(a, b, box) != want:
                return False
    return True


def section_schubert() -> list[CheckResult]:
    checks = [
        _check(
            "square of the first special class",
            SchubertExpr({(2,): 1, (1, 1): 1}),
            multiply(sigma(1), sigma(1)),
        ),
        _check(
            "first times second special class",
            SchubertExpr({(3,): 1, (2, 1): 1}),
            multiply(sigma(1), sigma(2)),
        ),
        _check(
            "first times third special class",
            SchubertExpr({(4,): 1, (3, 1): 1}),
            multiply(sigma(1), sigma(3)),
        ),
        _check(
            "square of the second special class",
            SchubertExpr({(4,): 1, (3, 1): 1, (2, 2): 1}),
            multiply(sigma(2), sigma(2)),
        ),
        _check(
            "first class times the hook (2,1)",
            SchubertExpr({(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}),
            multiply(sigma(1), sigma(2, 1)),
        ),
        _check(
            "second class times the one-column (1,1)",
            SchubertExpr({(3, 1): 1, (2, 1, 1): 1}),
            multiply(sigma(2), sigma(1, 1)),
        ),
        _check(
            "cube of the first special class",
            SchubertExpr({(3,): 1, (2, 1): 2, (1, 1, 1): 1}),
            sigma(1) ** 3,
        ),
        _check(
            "determinant index matrix for (1,1)",
            [[1, 2], [0, 1]],
            giambelli_matrix(Partition((1, 1))),
        ),
        _check(
            "determinant index matrix for (3,2)",
            [[3, 4], [1, 2]],
            giambelli_matrix(Partition((3, 2))),
        ),
        _check(
            "determinant expansion of (1,1)",
            {(1, 1): 1, (2,): -1},
            special_expansion(Partition((1, 1))),
        ),
        _check(
            "determinant expansion of (1,1,1)",
            {(1, 1, 1): 1, (2, 1): -2, (3,): 1},
            special_expansion(Partition((1, 1, 1))),
        ),
        _check(
            "determinant expansion of (1,1,1,1)",
            {(1, 1, 1, 1): 1, (2, 1, 1): -3, (2, 2): 1, (3, 1): 2, (4,): -1},
            special_expansion(Partition((1, 1, 1, 1))),
        ),
        _check(
            "determinant expansion of (3,2)",
            {(3, 2): 1, (4, 1): -1},
            special_expansion(Partition((3, 2))),
        ),
        _check(
            "duality table in the 2x2 box",
            True,
            _duality_table_ok(2, 2),
        ),
        _check(
            "duality table in the 2x3 box",
            True,
            _duality_table_ok(2, 3),
        ),
        _check(
            "box truncation of the second-class square",
            sigma(2, 2),
            multiply(sigma(2), sigma(2), box=BoxSpec(2, 2)),
        ),
        _check(
            "boxed single-part product on (2,1)",
            SchubertExpr({(3, 1): 1, (2, 2): 1}),
            pieri_multiply(sigma(2, 1), 1, box=BoxSpec(2, 3)),
        ),
    ]
    return checks


# -- supporting lemmas --------------------------------------------------------


def section_lemmas() -> list[CheckResult]:
    line = M * cvar(1)
    twist_ok = all(
        tangent_twisted_chern(n, p)
        == substitute(twisted_chern(n, p), cvar, line=line)
        for n in range(1, 7)
        for p in range(n + 1)
    )
    bridge_ok = all(
        special_to_chern_s(w)
        == substitute(
            banded_determinant(w),
            lambda i: cmono((i,), (-1) ** i, "s"),
            variables="s",
        )
        for w in range(7)
    )
    inversion_ok = True
    for w in range(1, 9):
        total = ChernPoly.zero("s")
        for i in range(w + 1):
            factor = cmono((i,), 1, "s") if i else ChernPoly.one("s")
            total = total + factor * special_to_chern_s(w - i)
        if not total.is_zero():
            inversion_ok = False
    det_ok = all(determinant_recursion_check(k) for k in range(1, 9))
    power_gap_ok = all(
        is_effective(sigma(1) ** t - sigma(*([1] * t))) for t in range(2, 9)
    )
    checks = [
        _check(
            "generic twist formula, rank 3 and p=2",
            cmono((2,), 1, "e")
            + cmono((1,), 2, "e", line_power=1)
            + cmono((), 3, "e", line_power=2),
            twisted_chern(3, 2),
        ),
        _check(
            "twist formula specializes to the tangent version, n<=6",
            True,
            twist_ok,
        ),
        _check(
            "band determinant of size 3",
            _cp([((1, 1, 1), 1), ((2, 1), -2), ((3,), 1)], "a"),
            banded_determinant(3),
        ),
        _check(
            "determinant inversion identity through size 8",
            True,
            det_ok,
        ),
        _check(
            "band determinant matches the special-class expansion, w<=6",
            True,
            bridge_ok,
        ),
        _check(
            "single-row class w=1 in subbundle classes",
            _cp([((1,), -1)], "s"),
            special_to_chern_s(1),
        ),
        _check(
            "single-row class w=2 in subbundle classes",
            _cp([((1, 1), 1), ((2,), -1)], "s"),
            special_to_chern_s(2),
        ),
        _check(
            "single-row class w=3 in subbundle classes",
            _cp([((1, 1, 1), -1), ((2, 1), 2), ((3,), -1)], "s"),
            special_to_chern_s(3),
        ),
        _check(
            "single-row class w=4 in subbundle classes",
            _cp(
                [
                    ((1, 1, 1, 1), 1),
                    ((2, 1, 1), -3),
                    ((2, 2), 1),
                    ((3, 1), 2),
                    ((4,), -1),
                ],
                "s",
            ),
            special_to_chern_s(4),
        ),
        _check(
            "series inversion cancels degree by degree, w<=8",
            True,
            inversion_ok,
        ),
        _check(
            "powers of the first class dominate one-column classes, t<=8",
            True,
            power_gap_ok,
        ),
        _check(
            "gap at t=2 is the second special class",
            sigma(2),
            sigma(1) ** 2 - sigma(1, 1),
        ),
    ]
    return checks


SECTIONS = {
    "n2": section_n2,
    "n3": section_n3,
    "n4": section_n4,
    "n5": section_n5,
    "schubert": section_schubert,
    "lemmas": section_lemmas,
}


def run_section(name: str) -> list[CheckResult]:
    if name not in SECTIONS:
        raise ValueError(f"unknown section {name!r}")
    return SECTIONS[name]()
