"""End-to-end command tests, run in process through main()."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import chernbounds.cli
import chernbounds.inequalities
import chernbounds.polytope
from chernbounds.chern import cvar
from chernbounds.cli import main
from chernbounds.inequalities import generate_all, specialize
from chernbounds.polytope import RatioInequality
from chernbounds.render import parse_inequality_json


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_n2_text(capsys):
    code, out, err = run_cli(capsys, "generate", "--n", "2", "--m", "1")
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "5*c1^2 + c2 >= 0  [effective (2)]",
        "c1^2 >= 0  [effective (1,1)]",
        "11*c1^2 - c2 >= 0  [upper (2)]",
    ]


def test_generate_symbolic_default(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "2")
    assert code == 0
    assert "(3m^2 + 2m)*c1^2 + c2 >= 0" in out
    assert "(6m^2 + 4m + 1)*c1^2 - c2 >= 0" in out


def test_generate_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "3", "--m", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["m"] == 2
    assert doc["count"] == len(doc["inequalities"])
    parsed = [parse_inequality_json(entry) for entry in doc["inequalities"]]
    expected = [specialize(i, 2) for i in generate_all(3)]
    assert parsed == expected


def test_generate_latex(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "2", "--m", "1", "--format", "latex")
    assert code == 0
    assert "\\[ 5c_1^2 + c_2 \\ge 0 \\]" in out


def test_generate_rejects_bad_input(capsys):
    assert run_cli(capsys, "generate", "--n", "1")[0] == 1
    assert run_cli(capsys, "generate", "--n", "2", "--m", "0")[0] == 1
    assert run_cli(capsys, "generate", "--n", "2", "--m", "x")[0] == 1


@pytest.mark.parametrize("command", ["generate", "polytope"])
def test_generate_and_polytope_reject_large_n(capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("generation started for an oversized --n")

    monkeypatch.setattr(chernbounds.cli, "generate_all", no_work)
    monkeypatch.setattr(chernbounds.cli, "build_polytope", no_work)
    assert run_cli(capsys, command, "--n", "13", "--m", "1") == (1, "", "error: --n must be at most 12\n")


def test_generate_m_symbolic_spelled_out(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "2", "--m", "symbolic")
    assert code == 0
    assert "3m^2" in out


def test_polytope_default_m_for_surfaces(capsys):
    code, out, _ = run_cli(capsys, "polytope", "--n", "2")
    assert code == 0
    assert "n=2 m=5 mode=general-type rows=2" in out
    assert "t[2] + 85 >= 0" in out
    assert "-t[2] + 171 >= 0" in out


def test_polytope_needs_m_above_dim2(capsys):
    code, _, err = run_cli(capsys, "polytope", "--n", "3")
    assert code == 1
    assert "--m" in err


def test_polytope_rejects_symbolic_m(capsys):
    code, _, err = run_cli(capsys, "polytope", "--n", "2", "--m", "symbolic")
    assert code == 1
    assert "numeric" in err


def test_polytope_bounds_and_chi_json(capsys):
    code, out, _ = run_cli(
        capsys, "polytope", "--n", "2", "--m", "1", "--bounds", "--chi", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["hrep"]["mode"] == "general-type"
    coord = doc["certificate"]["coords"][0]
    assert (coord["min"], coord["max"]) == ("-5", "11")
    assert doc["certificate"]["bounded"] is True
    assert doc["chi"] == {
        "d1": "-5",
        "d2": "11",
        "d3": "-1/3",
        "d4": "1",
        "statuses": ["optimal"] * 4,
    }


def test_polytope_bounds_and_chi_generate_once(capsys, monkeypatch):
    calls = []
    real = chernbounds.polytope.generate_all

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(chernbounds.polytope, "generate_all", counted)
    code, _, _ = run_cli(capsys, "polytope", "--n", "3", "--m", "1", "--bounds", "--chi")
    assert code == 0
    assert len(calls) == 1


def test_polytope_fano(capsys):
    code, out, _ = run_cli(
        capsys, "polytope", "--n", "2", "--m", "-1", "--mode", "fano", "--bounds"
    )
    assert code == 0
    assert "t[2] in [-1, 3]" in out


def test_polytope_mode_mismatch(capsys):
    code, _, err = run_cli(capsys, "polytope", "--n", "2", "--m", "-1")
    assert code == 1
    assert "general-type" in err


def test_schubert_mult(capsys):
    code, out, _ = run_cli(capsys, "schubert", "mult", "2,1", "1")
    assert code == 0
    assert out.strip() == "s(3,1) + s(2,2) + s(2,1,1)"


def test_schubert_mult_box(capsys):
    code, out, _ = run_cli(capsys, "schubert", "mult", "2", "2", "--box", "2,2")
    assert code == 0
    assert out.strip() == "s(2,2)"


def test_schubert_mult_box_rejects_nonfitting(capsys):
    code, _, err = run_cli(capsys, "schubert", "mult", "3", "1", "--box", "2,2")
    assert code == 1
    assert err


def test_schubert_rejects_bad_partition(capsys):
    assert run_cli(capsys, "schubert", "mult", "1,2", "1")[0] == 1


def test_sigma_to_chern(capsys):
    code, out, _ = run_cli(capsys, "sigma-to-chern", "4")
    assert code == 0
    assert out.strip() == "c1^4S - 3*c1^2S*c2S + 2*c1S*c3S + c2^2S - c4S"


def test_gauss_chern(capsys):
    code, out, _ = run_cli(capsys, "gauss-chern", "--n", "4", "--p", "3")
    assert code == 0
    assert out.strip() == "(10m^3 + 6m^2)*c1^3 + 3m*c1*c2 + c3"


def test_todd(capsys):
    code, out, _ = run_cli(capsys, "todd", "4")
    assert code == 0
    assert out.strip() == (
        "-(1/720)*c1^4 + (1/180)*c1^2*c2 + (1/720)*c1*c3 + (1/240)*c2^2 - (1/720)*c4"
    )


def test_verify_paper_clean_section(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "n2")
    assert code == 0
    assert "[DIFF]" not in out
    assert "[ ok ]" in out


def test_verify_paper_reports_known_mismatches(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "n4")
    assert code == 2
    diffs = [line for line in out.splitlines() if line.startswith("[DIFF]")]
    assert len(diffs) == 3
    assert "pinned:" in out and "computed:" in out


def test_verify_paper_n5_exact(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "n5")
    assert code == 0
    assert "[DIFF]" not in out


def test_unknown_command_exits_1(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1


def test_missing_required_exits_1(capsys):
    assert run_cli(capsys, "gauss-chern", "--n", "4")[0] == 1


def test_internal_failure_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("constant row with negative constant")

    monkeypatch.setattr(chernbounds.cli, "build_polytope", broken)
    code, out, err = run_cli(capsys, "polytope", "--n", "2", "--bounds")
    assert code == 3
    assert out == ""
    assert err == "error: internal: constant row with negative constant\n"


def test_route_disagreement_exits_3(capsys, monkeypatch):
    real = chernbounds.inequalities.schubert_class_in_chern_s_dual
    monkeypatch.setattr(chernbounds.inequalities, "schubert_class_in_chern_s_dual", lambda a: real(a) * 2)
    code, out, err = run_cli(capsys, "generate", "--n", "3")
    assert code == 3
    assert out == ""
    assert err == "error: internal: schubert-class family n=3: routes disagree for (3)\n"


def test_polytope_guard_failure_exits_3(capsys, monkeypatch):
    real = chernbounds.polytope.build_polytope
    cut = RatioInequality(3, (Fraction(0), Fraction(-1)), Fraction(85))

    def with_cut_row(*args, **kwargs):
        return real(*args, **kwargs) + [cut]

    monkeypatch.setattr(chernbounds.cli, "build_polytope", with_cut_row)
    code, out, err = run_cli(capsys, "polytope", "--n", "3", "--m", "1", "--bounds")
    assert code == 3
    assert out == ""
    assert err == (
        "error: internal: polytope guard n=3 m=1: a row is negative at the s(1,1,1) vertex\n"
    )


def test_gauss_inverse_lead_failure_exits_3(capsys, monkeypatch):
    real = chernbounds.polytope.gauss_pullback_chern

    def wrong_c2_lead(n, p):
        return real(n, p) + cvar(2) if p == 2 else real(n, p)

    monkeypatch.setattr(chernbounds.polytope, "gauss_pullback_chern", wrong_c2_lead)
    chernbounds.polytope._simplex_vertices.cache_clear()
    code, out, err = run_cli(capsys, "polytope", "--n", "3", "--m", "1", "--bounds")
    assert code == 3
    assert out == ""
    assert err == "error: internal: Gauss inverse n=3 m=1: the pulled-back c2 has lead 2\n"


def test_todd_degree_cap(capsys):
    code, out, err = run_cli(capsys, "todd", str(chernbounds.cli.MAX_TODD_DEGREE + 1))
    assert code == 1
    assert out == ""
    assert err == f"error: degree must be at most {chernbounds.cli.MAX_TODD_DEGREE}\n"


def test_sigma_to_chern_weight_cap(capsys):
    code, out, err = run_cli(capsys, "sigma-to-chern", str(chernbounds.cli.MAX_SIGMA_WEIGHT + 1))
    assert code == 1
    assert out == ""
    assert err == f"error: weight must be at most {chernbounds.cli.MAX_SIGMA_WEIGHT}\n"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "generate", "--n", "2", "--m", "1", "--format", "json", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["count"] == 3


def test_output_to_unwritable_path_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, "polytope", "--n", "3", "--m", "1", "--output", str(target))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_byte_determinism(capsys):
    first = run_cli(capsys, "polytope", "--n", "3", "--m", "1", "--bounds", "--chi", "--format", "json")
    second = run_cli(capsys, "polytope", "--n", "3", "--m", "1", "--bounds", "--chi", "--format", "json")
    assert first == second
    third = run_cli(capsys, "generate", "--n", "4", "--format", "json")
    fourth = run_cli(capsys, "generate", "--n", "4", "--format", "json")
    assert third == fourth


def test_console_script_entry_point():
    package_parent = os.path.dirname(os.path.dirname(chernbounds.__file__))
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chernbounds.cli", "todd", "2"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(1/12)*c1^2 + (1/12)*c2"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site hooks out, so only the package's own imports count
    package_parent = os.path.dirname(os.path.dirname(chernbounds.__file__))
    code = (
        f"import sys; sys.path.insert(0, {package_parent!r}); import chernbounds.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
