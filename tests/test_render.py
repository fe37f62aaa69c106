from fractions import Fraction

import pytest

from chernbounds.chern import cmono, twisted_chern
from chernbounds.inequalities import (
    Provenance,
    effective_inequality,
    schubert_class_inequality,
    specialize,
    upper_inequality,
)
from chernbounds.mpoly import MPoly
from chernbounds.partitions import Partition
from chernbounds.polytope import (
    RatioInequality,
    boundedness_certificate,
    build_polytope,
    ratio_coordinates,
)
from chernbounds.render import (
    certificate_to_json,
    certificate_to_latex,
    certificate_to_text,
    chern_to_json,
    coordinate_label,
    describe_provenance,
    hrep_to_json,
    inequality_to_json,
    parse_chern_json,
    parse_inequality_json,
    parse_schubert_json,
    render_chern,
    render_inequality,
    render_mpoly,
    render_products,
    render_ratio_row,
    render_schubert,
    schubert_to_json,
)
from chernbounds.schubert import sigma
from chernbounds.todd import todd_components


def mp(*coeffs):
    return MPoly(coeffs)


def test_render_mpoly_text():
    assert render_mpoly(mp(0, 0, 6, 10)) == "10m^3 + 6m^2"
    assert render_mpoly(mp(1, 4)) == "4m + 1"
    assert render_mpoly(mp(-5)) == "-5"
    assert render_mpoly(mp(0, Fraction(1, 2))) == "(1/2)m"


def test_render_mpoly_latex():
    assert render_mpoly(mp(0, Fraction(1, 2)), latex=True) == "\\tfrac{1}{2}m"
    assert render_mpoly(mp(0, 0, 3), latex=True) == "3m^2"


def test_render_chern_gauss_classes():
    from chernbounds.chern import gauss_pullback_chern

    assert render_chern(gauss_pullback_chern(4, 3)) == "(10m^3 + 6m^2)*c1^3 + 3m*c1*c2 + c3"
    assert render_chern(gauss_pullback_chern(2, 1)) == "(3m + 1)*c1"


def test_render_chern_subbundle_suffix():
    from chernbounds.chern import special_to_chern_s

    assert (
        render_chern(special_to_chern_s(4))
        == "c1^4S - 3*c1^2S*c2S + 2*c1S*c3S + c2^2S - c4S"
    )


def test_render_chern_latex():
    from chernbounds.chern import gauss_pullback_chern

    out = render_chern(gauss_pullback_chern(4, 3), latex=True)
    assert out == "(10m^3 + 6m^2)c_1^3 + 3mc_1c_2 + c_3"


def test_render_todd_fraction():
    assert (
        render_chern(todd_components(4)[4])
        == "-(1/720)*c1^4 + (1/180)*c1^2*c2 + (1/720)*c1*c3 + (1/240)*c2^2 - (1/720)*c4"
    )


def test_render_chern_single_fractional_term_in_m():
    poly = cmono((1, 1, 1), mp(0, 0, Fraction(-3, 2)))
    assert render_chern(poly) == "-(3/2)m^2*c1^3"
    assert render_chern(poly, latex=True) == "-\\tfrac{3}{2}m^2c_1^3"


def test_render_schubert():
    expr = sigma(3, 1) + sigma(2, 2) + sigma(2, 1, 1)
    assert render_schubert(expr) == "s(3,1) + s(2,2) + s(2,1,1)"
    assert render_schubert(expr, latex=True) == (
        "\\sigma_{3,1} + \\sigma_{2,2} + \\sigma_{2,1,1}"
    )
    assert render_schubert(sigma() * 0) == "0"
    assert render_schubert(2 * sigma(1)) == "2*s(1)"
    assert render_schubert(2 * sigma(1), latex=True) == "2\\sigma_{1}"
    assert render_products({}) == "0"
    assert render_products({(): 1}) == "1"
    assert render_products({(1, 1): 1, (2,): -1}) == "-s(2) + s(1)*s(1)"
    assert render_products({(3,): -2, (2, 1): 3, (): -1}) == "-2*s(3) + 3*s(2)*s(1) - 1"


def test_coordinate_label():
    assert coordinate_label(Partition((2, 1))) == "t[2,1]"
    assert coordinate_label(Partition((2, 1)), latex=True) == "t_{2,1}"


def test_render_ratio_row():
    coords = ratio_coordinates(2)
    row = RatioInequality(2, (Fraction(1),), Fraction(85))
    assert render_ratio_row(row, coords) == "t[2] + 85 >= 0"
    row2 = RatioInequality(2, (Fraction(-1),), Fraction(171))
    assert render_ratio_row(row2, coords) == "-t[2] + 171 >= 0"
    row3 = RatioInequality(2, (Fraction(0),), Fraction(4))
    assert render_ratio_row(row3, coords) == "4 >= 0"
    half = RatioInequality(2, (Fraction(1, 2),), Fraction(-3, 4))
    assert render_ratio_row(half, coords) == "(1/2)*t[2] - 3/4 >= 0"
    assert render_ratio_row(half, coords, latex=True) == "\\tfrac{1}{2}t_{2} - \\tfrac{3}{4} \\ge 0"
    zero = RatioInequality(2, (Fraction(0),), Fraction(0))
    assert render_ratio_row(zero, coords) == "0 >= 0"


def test_describe_provenance():
    assert describe_provenance(Provenance("effective", Partition((2,)))) == "effective (2)"
    assert (
        describe_provenance(Provenance("comparison", Partition((2, 2)), Partition((3, 1))))
        == "comparison (2,2) vs (3,1)"
    )


def test_render_inequality_text_and_latex():
    ineq = specialize(effective_inequality((2,), 2), 1)
    assert render_inequality(ineq) == "5*c1^2 + c2 >= 0  [effective (2)]"
    assert render_inequality(ineq, latex=True) == "5c_1^2 + c_2 \\ge 0"


def test_schubert_json_roundtrip():
    expr = sigma(3, 1) + 2 * sigma(2, 2)
    data = schubert_to_json(expr)
    assert data == {
        "terms": [
            {"partition": [3, 1], "coeff": "1"},
            {"partition": [2, 2], "coeff": "2"},
        ]
    }
    assert parse_schubert_json(data) == expr


def test_chern_json_roundtrip():
    from chernbounds.chern import gauss_pullback_chern

    poly = gauss_pullback_chern(4, 4)
    data = chern_to_json(poly)
    assert data["degree"] == 4
    back = parse_chern_json(data)
    assert back == poly


def test_chern_json_rejects_twist():
    with pytest.raises(ValueError):
        chern_to_json(twisted_chern(3, 2))


def test_inequality_json_roundtrip_symbolic_and_numeric():
    for ineq in (
        upper_inequality((2,), 2),
        specialize(schubert_class_inequality((3, 2), 5), 1),
    ):
        data = inequality_to_json(ineq)
        assert data["relation"] == ">=0"
        back = parse_inequality_json(data)
        assert back == ineq
    sym = inequality_to_json(upper_inequality((2,), 2))
    assert sym["m"] == "symbolic"


def test_hrep_json_shape():
    rows = build_polytope(2, 5)
    data = hrep_to_json(2, 5, "general-type", ratio_coordinates(2), rows)
    assert data["coordinates"] == [[2]]
    assert {"coeffs": ["1"], "constant": "85"} in data["rows"]
    assert {"coeffs": ["-1"], "constant": "171"} in data["rows"]


def test_certificate_serializations():
    cert = boundedness_certificate(build_polytope(2, 1), 1)
    data = certificate_to_json(cert)
    assert data["bounded"] is True
    assert data["coords"][0]["min"] == "-5"
    assert data["coords"][0]["max"] == "11"
    assert "ray" not in data["coords"][0]

    text = certificate_to_text(cert)
    assert "t[2] in [-5, 11]" in text
    assert "bounded: yes" in text

    latex = certificate_to_latex(cert)
    assert "t_{2}" in latex
    assert "\\begin{align*}" in latex
