"""Command-line front end.

Exit codes: 0 on success, 1 for invalid flags or configuration (such as
--n above 12) or an unwritable --output path, 2 when a pinned reference
value mismatches (the requested output is still written in that case), 3
when an internal consistency check fails, such as the polytope guard (a
bug, reported as "error: internal: ...").
"""

from __future__ import annotations

import argparse
import json
import sys

from .chern import gauss_pullback_chern, special_to_chern_s
from .inequalities import generate_all, specialize
from .polytope import (
    GENERAL_TYPE,
    boundedness_certificate,
    build_polytope,
    chi_bounds,
    ratio_coordinates,
)
from .render import (
    certificate_to_json,
    certificate_to_latex,
    certificate_to_text,
    chern_to_json,
    hrep_to_json,
    inequality_to_json,
    render_chern,
    render_inequality,
    render_ratio_row,
    schubert_to_json,
    render_schubert,
)
from .schubert import BoxSpec, multiply, sigma
from .todd import todd_polynomial
from .verify import run_section, SECTIONS


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; this front end reserves 2
    for verification mismatches, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: --m default, distinct from an explicit "--m symbolic"
_M_UNSET = object()

#: largest --n that generate and polytope accept; generation grows with the
#: square of the partition count (generate --n 12 takes seconds, --n 14 far
#: longer), so larger n is refused before any work starts
MAX_N = 12


def _parse_m(text: str):
    if text == "symbolic":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"m must be an integer or 'symbolic', got {text!r}")


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated partition: {text!r}")
    if any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError("parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise argparse.ArgumentTypeError("parts must be weakly decreasing")
    return parts


def _parse_box(text: str) -> tuple[int, int]:
    bits = text.split(",")
    if len(bits) != 2:
        raise argparse.ArgumentTypeError("box must be rows,cols")
    try:
        rows, cols = int(bits[0]), int(bits[1])
    except ValueError:
        raise argparse.ArgumentTypeError("box must be rows,cols")
    if rows < 1 or cols < 1:
        raise argparse.ArgumentTypeError("box sides must be positive")
    return rows, cols


def _add_output_options(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=["json", "latex", "text"], default="text")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")


def _emit(text: str, args) -> None:
    data = text if text.endswith("\n") else text + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(data)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(data)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2)


def _emit_expr(obj, to_json, render, args) -> int:
    """Write one expression as JSON, a LaTeX display or plain text."""
    if args.format == "json":
        _emit(_dumps(to_json(obj)), args)
    elif args.format == "latex":
        _emit(f"\\[ {render(obj, latex=True)} \\]", args)
    else:
        _emit(render(obj), args)
    return 0


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 1


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError("--n must be at least 2")
    if n > MAX_N:
        raise ValueError(f"--n must be at most {MAX_N}")


def cmd_generate(args) -> int:
    _check_n(args.n)
    m_value = None if args.m is _M_UNSET else args.m
    if m_value == 0:
        return _fail("--m must be nonzero")
    items = generate_all(args.n, include_comparisons=not args.no_comparisons)
    if m_value is not None:
        items = [specialize(ineq, m_value) for ineq in items]
    if args.format == "json":
        doc = {
            "n": args.n,
            "m": "symbolic" if m_value is None else m_value,
            "count": len(items),
            "inequalities": [inequality_to_json(ineq) for ineq in items],
        }
        _emit(_dumps(doc), args)
    elif args.format == "latex":
        lines = [f"\\[ {render_chern(i.lhs, latex=True)} \\ge 0 \\]" for i in items]
        _emit("\n".join(lines), args)
    else:
        _emit("\n".join(render_inequality(i) for i in items), args)
    return 0


_CHI_NAMES = ("d1", "d2", "d3", "d4")


def cmd_polytope(args) -> int:
    _check_n(args.n)
    if args.m is _M_UNSET:
        if args.n == 2:
            m_value = 5
        else:
            return _fail(f"polytope needs a numeric --m for n={args.n}")
    elif args.m is None:
        return _fail("polytope needs a numeric --m, not 'symbolic'")
    else:
        m_value = args.m
    if m_value == 0:
        return _fail("--m must be nonzero")
    rows = build_polytope(args.n, m_value, args.mode, not args.no_comparisons)
    coords = ratio_coordinates(args.n)
    cert = boundedness_certificate(rows, m_value, args.mode) if args.bounds else None
    chi = chi_bounds(rows, m_value) if args.chi else None

    if args.format == "json":
        doc = {"hrep": hrep_to_json(args.n, m_value, args.mode, coords, rows)}
        if cert is not None:
            doc["certificate"] = certificate_to_json(cert)
        if chi is not None:
            doc["chi"] = {name: str(value) for name, value in zip(_CHI_NAMES, chi)}
            doc["chi"]["statuses"] = ["optimal"] * len(_CHI_NAMES)
        _emit(_dumps(doc), args)
    elif args.format == "latex":
        lines = ["\\begin{align*}"]
        lines.append(
            " \\\\\n".join(render_ratio_row(r, coords, latex=True) for r in rows)
        )
        lines.append("\\end{align*}")
        if cert is not None:
            lines.append(certificate_to_latex(cert))
        if chi is not None:
            lines.append("\\[ d_1 = %s,\\; d_2 = %s,\\; d_3 = %s,\\; d_4 = %s \\]" % chi)
        _emit("\n".join(lines), args)
    else:
        lines = [f"n={args.n} m={m_value} mode={args.mode} rows={len(rows)}"]
        lines += [render_ratio_row(r, coords) for r in rows]
        if cert is not None:
            lines.append("")
            lines.append(certificate_to_text(cert))
        if chi is not None:
            lines.append("")
            lines += [f"{name} = {value}" for name, value in zip(_CHI_NAMES, chi)]
        _emit("\n".join(lines), args)
    return 0


def cmd_schubert(args) -> int:
    box = BoxSpec(*args.box) if args.box else None
    if box is not None:
        for parts in (args.a, args.b):
            if len(parts) > box.rows or (parts and parts[0] > box.cols):
                return _fail(f"partition {parts} does not fit in the box")
    product = multiply(sigma(*args.a), sigma(*args.b), box=box)
    return _emit_expr(product, schubert_to_json, render_schubert, args)


def cmd_sigma_to_chern(args) -> int:
    if args.w < 1:
        return _fail("weight must be positive")
    return _emit_expr(special_to_chern_s(args.w), chern_to_json, render_chern, args)


def cmd_gauss_chern(args) -> int:
    if args.n < 1:
        return _fail("--n must be positive")
    if not 0 <= args.p <= args.n:
        return _fail("--p must satisfy 0 <= p <= n")
    return _emit_expr(gauss_pullback_chern(args.n, args.p), chern_to_json, render_chern, args)


def cmd_todd(args) -> int:
    if args.d < 1:
        return _fail("degree must be positive")
    return _emit_expr(todd_polynomial(args.d).body, chern_to_json, render_chern, args)


def cmd_verify_paper(args) -> int:
    results = run_section(args.section)
    mismatches = [r for r in results if not r.matches]
    if args.format == "json":
        doc = {
            "section": args.section,
            "checks": [
                {
                    "name": r.name,
                    "match": r.matches,
                    "expected": r.expected,
                    "computed": r.computed,
                }
                for r in results
            ],
            "mismatches": len(mismatches),
        }
        _emit(_dumps(doc), args)
    else:
        lines = []
        for r in results:
            if r.matches:
                lines.append(f"[ ok ] {r.name}")
            else:
                lines.append(f"[DIFF] {r.name}")
                lines.append(f"       pinned:   {r.expected}")
                lines.append(f"       computed: {r.computed}")
        lines.append(
            f"{args.section}: {len(results) - len(mismatches)} of {len(results)} pinned values match"
        )
        body = "\n".join(lines)
        if args.format == "latex":
            body = "\\begin{verbatim}\n" + body + "\n\\end{verbatim}"
        _emit(body, args)
    return 2 if mismatches else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="chernbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="emit the inequality families")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=_parse_m, default=_M_UNSET)
    p_gen.add_argument("--no-comparisons", action="store_true")
    _add_output_options(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_poly = sub.add_parser("polytope", help="H-representation and bounds of the ratio polytope")
    p_poly.add_argument("--n", type=int, required=True)
    p_poly.add_argument("--m", type=_parse_m, default=_M_UNSET)
    p_poly.add_argument("--mode", choices=[GENERAL_TYPE, "fano"], default=GENERAL_TYPE)
    p_poly.add_argument("--bounds", action="store_true")
    p_poly.add_argument("--chi", action="store_true")
    p_poly.add_argument("--no-comparisons", action="store_true")
    _add_output_options(p_poly)
    p_poly.set_defaults(func=cmd_polytope)

    p_schub = sub.add_parser("schubert", help="Schubert calculus operations")
    schub_sub = p_schub.add_subparsers(dest="schubert_command", required=True)
    p_mult = schub_sub.add_parser("mult", help="multiply two Schubert classes")
    p_mult.add_argument("a", type=_parse_partition)
    p_mult.add_argument("b", type=_parse_partition)
    p_mult.add_argument("--box", type=_parse_box, default=None)
    _add_output_options(p_mult)
    p_mult.set_defaults(func=cmd_schubert)

    p_stc = sub.add_parser("sigma-to-chern", help="special class in subbundle Chern classes")
    p_stc.add_argument("w", type=int)
    _add_output_options(p_stc)
    p_stc.set_defaults(func=cmd_sigma_to_chern)

    p_gc = sub.add_parser("gauss-chern", help="Chern class of the pulled-back subbundle")
    p_gc.add_argument("--n", type=int, required=True)
    p_gc.add_argument("--p", type=int, required=True)
    _add_output_options(p_gc)
    p_gc.set_defaults(func=cmd_gauss_chern)

    p_todd = sub.add_parser("todd", help="graded Todd polynomial")
    p_todd.add_argument("d", type=int)
    _add_output_options(p_todd)
    p_todd.set_defaults(func=cmd_todd)

    p_ver = sub.add_parser("verify-paper", help="diff pinned reference values against recomputation")
    p_ver.add_argument("section", choices=sorted(SECTIONS))
    _add_output_options(p_ver)
    p_ver.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))
    except RuntimeError as exc:
        sys.stderr.write(f"error: internal: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
