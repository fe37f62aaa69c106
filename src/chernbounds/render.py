"""Text, LaTeX, and JSON forms for every object the command line emits.

All three formats are deterministic: terms are ordered by monomial length
descending, then alphabet descending, and rationals are printed exactly
("p" or "p/q", never floats).  Signed sums are joined in one place,
`_signed_sum`, and coefficients in front of a label are printed in one
place, `_scaled`.  The JSON emitters return plain dicts; their parse_*
inverses rebuild the original objects, so emit/parse round-trips are
identities.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .chern import ChernPoly, Monomial
from .inequalities import Inequality, Provenance
from .mpoly import MPoly
from .partitions import Partition
from .polytope import BoundsCertificate, RatioInequality
from .schubert import SchubertExpr

_STYLES = {"x": ("c", ""), "s": ("c", "S"), "e": ("c", ""), "a": ("a", "")}


def _term_sort_key(mono: Monomial):
    return (-mono.parts.length, tuple(-p for p in mono.parts), mono.line_power)


def _sub(base: str, i: int, latex: bool) -> str:
    if latex:
        return f"{base}_{i}" if 0 <= i <= 9 else f"{base}_{{{i}}}"
    return f"{base}{i}"


def _exp(e: int, latex: bool) -> str:
    if e == 1:
        return ""
    if latex and e > 9:
        return f"^{{{e}}}"
    return f"^{e}"


def _frac_str(v: Fraction, latex: bool) -> str:
    if latex and v.denominator != 1:
        sign = "-" if v < 0 else ""
        return f"{sign}\\tfrac{{{abs(v.numerator)}}}{{{v.denominator}}}"
    return str(v)


def _signed_sum(terms) -> str:
    """Join (value, body) pairs as `a + b - c`, each sign taken from value."""
    text = "".join((" - " if v < 0 else " + ") + body for v, body in terms)
    if not text:
        return "0"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def _scaled(mag, label: str, latex: bool, star: bool = True) -> str:
    """A nonnegative magnitude in front of a label; a unit magnitude is dropped."""
    if not label:
        return _frac_str(mag, latex)
    if mag == 1:
        return label
    coeff = _frac_str(mag, latex)
    if not latex and mag.denominator != 1:
        coeff = f"({coeff})"
    return coeff + ("*" if star and not latex else "") + label


def render_mpoly(p: MPoly, latex: bool = False) -> str:
    """Polynomial in m, powers descending, exact coefficients."""
    return _signed_sum(
        (v, _scaled(abs(v), "m" + _exp(e, latex) if e else "", latex, star=False))
        for e, v in reversed(list(enumerate(p.coeffs)))
        if v
    )


def _monomial_str(mono: Monomial, variables: str, latex: bool) -> str:
    letter, suffix = _STYLES[variables]
    factors = []
    for i, e in sorted(Counter(mono.parts).items()):
        factors.append(_sub(letter, i, latex) + _exp(e, latex) + suffix)
    if mono.line_power:
        factors.append("L" + _exp(mono.line_power, latex))
    joiner = "" if latex else "*"
    return joiner.join(factors)


def _coeff_prefix(coeff: MPoly, latex: bool) -> tuple[int, str]:
    """Sign and body of a coefficient in front of a nonempty monomial."""
    nonzero = [v for v in coeff.coeffs if v]
    if len(nonzero) > 1:
        if all(v < 0 for v in nonzero):
            return -1, "(" + render_mpoly(-coeff, latex) + ")"
        return 1, "(" + render_mpoly(coeff, latex) + ")"
    v = nonzero[0]
    sign = -1 if v < 0 else 1
    body = render_mpoly(coeff if sign > 0 else -coeff, latex)
    if body == "1":
        return sign, ""
    if not latex and coeff.is_constant() and "/" in body:
        body = f"({body})"
    return sign, body


def _chern_term(coeff: MPoly, ms: str, latex: bool) -> tuple[int, str]:
    if not ms:
        return 1, render_mpoly(coeff, latex)
    sign, prefix = _coeff_prefix(coeff, latex)
    return sign, prefix + ("*" if prefix and not latex else "") + ms


def render_chern(poly: ChernPoly, latex: bool = False) -> str:
    return _signed_sum(
        _chern_term(poly.terms[mono], _monomial_str(mono, poly.variables, latex), latex)
        for mono in sorted(poly.terms, key=_term_sort_key)
    )


def _schubert_label(part: Partition, latex: bool) -> str:
    if not part:
        return ""
    inner = ",".join(str(p) for p in part)
    return f"\\sigma_{{{inner}}}" if latex else f"s({inner})"


def render_schubert(expr: SchubertExpr, latex: bool = False) -> str:
    return _signed_sum(
        (c, _scaled(abs(c), _schubert_label(part, latex), latex))
        for part, c in sorted(expr.terms.items(), reverse=True)
    )


def render_products(prods: dict) -> str:
    """Products of special classes, such as `2*s(3) - s(2)*s(1)`; `()` is the unit."""
    return _signed_sum(
        (c, _scaled(abs(c), "*".join(f"s({i})" for i in prod), False))
        for prod, c in sorted(prods.items(), reverse=True)
    )


def coordinate_label(part: Partition, latex: bool = False) -> str:
    inner = ",".join(str(p) for p in part)
    return f"t_{{{inner}}}" if latex else f"t[{inner}]"


def render_ratio_row(row: RatioInequality, coords: list[Partition], latex: bool = False) -> str:
    terms = [
        (v, _scaled(abs(v), coordinate_label(part, latex), latex))
        for part, v in zip(coords, row.coeffs)
        if v
    ]
    if row.constant:
        terms.append((row.constant, _frac_str(abs(row.constant), latex)))
    return _signed_sum(terms) + (" \\ge 0" if latex else " >= 0")


def describe_provenance(prov: Provenance) -> str:
    a = "(" + ",".join(str(p) for p in prov.a) + ")"
    if prov.b is not None:
        b = "(" + ",".join(str(p) for p in prov.b) + ")"
        return f"{prov.kind} {a} vs {b}"
    return f"{prov.kind} {a}"


def render_inequality(ineq: Inequality, latex: bool = False) -> str:
    if latex:
        return render_chern(ineq.lhs, latex=True) + " \\ge 0"
    return (
        render_chern(ineq.lhs)
        + " >= 0  ["
        + describe_provenance(ineq.provenance)
        + "]"
    )


# ---------------------------------------------------------------------------
# JSON emitters and their inverses


def schubert_to_json(expr: SchubertExpr) -> dict:
    terms = []
    for part in sorted(expr.terms, reverse=True):
        terms.append({"partition": list(part), "coeff": str(expr.terms[part])})
    return {"terms": terms}


def parse_schubert_json(data: dict) -> SchubertExpr:
    terms = {}
    for entry in data["terms"]:
        terms[Partition(entry["partition"])] = int(entry["coeff"])
    return SchubertExpr(terms)


def chern_to_json(poly: ChernPoly) -> dict:
    terms = []
    for mono in sorted(poly.terms, key=_term_sort_key):
        if mono.line_power:
            raise ValueError("twist symbol is not serializable")
        coeff = poly.terms[mono]
        terms.append(
            {
                "monomial": list(mono.parts),
                "coeff_m": [str(v) for v in coeff.coeffs],
            }
        )
    return {"degree": poly.degree, "terms": terms}


def parse_chern_json(data: dict, variables: str = "x") -> ChernPoly:
    terms = ((e["monomial"], MPoly(Fraction(v) for v in e["coeff_m"])) for e in data["terms"])
    return ChernPoly(terms, variables)


def provenance_to_json(prov: Provenance) -> dict:
    out = {"kind": prov.kind, "a": list(prov.a)}
    if prov.b is not None:
        out["b"] = list(prov.b)
    return out


def inequality_to_json(ineq: Inequality) -> dict:
    return {
        "n": ineq.n,
        "m": "symbolic" if ineq.m_value is None else ineq.m_value,
        "relation": ineq.relation,
        "provenance": provenance_to_json(ineq.provenance),
        "terms": chern_to_json(ineq.lhs)["terms"],
    }


def parse_inequality_json(data: dict) -> Inequality:
    prov = data["provenance"]
    provenance = Provenance(
        prov["kind"],
        Partition(prov["a"]),
        Partition(prov["b"]) if "b" in prov else None,
    )
    lhs = parse_chern_json({"degree": data["n"], "terms": data["terms"]}, "x")
    m_value = None if data["m"] == "symbolic" else int(data["m"])
    return Inequality(data["n"], lhs, provenance, m_value)


def hrep_to_json(n: int, m_value: int, mode: str, coords, rows) -> dict:
    return {
        "n": n,
        "m": m_value,
        "mode": mode,
        "coordinates": [list(q) for q in coords],
        "rows": [
            {"coeffs": [str(v) for v in row.coeffs], "constant": str(row.constant)}
            for row in rows
        ],
    }


def certificate_to_json(cert: BoundsCertificate) -> dict:
    # every bound is attained at a simplex vertex, so the statuses and
    # "bounded" are fixed schema values
    coords = [
        {
            "partition": list(cb.partition),
            "min": str(cb.minimum),
            "max": str(cb.maximum),
            "min_status": "optimal",
            "max_status": "optimal",
        }
        for cb in cert.coordinates
    ]
    return {
        "n": cert.n,
        "m": cert.m_value,
        "mode": cert.mode,
        "coords": coords,
        "bounded": True,
    }


def certificate_to_text(cert: BoundsCertificate) -> str:
    lines = [f"n={cert.n} m={cert.m_value} mode={cert.mode}"]
    for cb in cert.coordinates:
        lines.append(f"{coordinate_label(cb.partition)} in [{cb.minimum}, {cb.maximum}]")
    lines.append("bounded: yes")
    return "\n".join(lines)


def certificate_to_latex(cert: BoundsCertificate) -> str:
    body = [
        f"{_frac_str(cb.minimum, True)} &\\le {coordinate_label(cb.partition, latex=True)} "
        f"\\le {_frac_str(cb.maximum, True)}"
        for cb in cert.coordinates
    ]
    return "\n".join(["\\begin{align*}", " \\\\\n".join(body), "\\end{align*}"])
