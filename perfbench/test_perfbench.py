"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads
from lr import lr_product, truncate


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_requests_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(random.Random(7)) == make(random.Random(7))
    assert make(random.Random(7)) != make(random.Random(8))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_requests_are_argv_only(name):
    pinned = set(workloads.pinned_space())
    for argv in workloads.WORKLOADS[name](random.Random(3)):
        assert isinstance(argv, tuple) and all(isinstance(a, str) for a in argv)
        assert argv[0] == "schubert" or argv in pinned


def test_request_goes_to_the_program_as_argv(monkeypatch):
    seen = []

    def fake_spawn(cmd, env):
        seen.append((cmd, env))
        return 0.01, 0, type("U", (), {"ru_maxrss": 1})(), False, b"", b""

    monkeypatch.setattr(run, "_spawn", fake_spawn)
    argv = ("todd", "3", "--format", "json")
    run.run_request(argv, {"PYTHONPATH": "src"}, {}, traced=False)
    cmd, env = seen[0]
    assert tuple(cmd[-len(argv):]) == argv
    assert cmd[:3] == [sys.executable, "-c", run.ENTRY]
    assert env == {"PYTHONPATH": "src"}


def test_pinned_space_has_every_pin():
    pins = checks.load_pins()
    assert set(pins) == {" ".join(a) for a in workloads.pinned_space()}


def test_calculus_box_offsets_are_uniform():
    reqs = workloads.calculus(random.Random(11))
    offsets = []
    for argv in reqs:
        if "--box" in argv:
            rows = int(argv[argv.index("--box") + 1].split(",")[0])
            longest = max(len(argv[2].split(",")), len(argv[3].split(",")))
            offsets.append(rows - longest)
    assert sorted(set(offsets)) == [0, 1, 2, 3]
    assert all(offsets.count(k) == len(offsets) // 4 for k in range(4))


S21 = {(4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2, (3, 1, 1, 1): 1, (2, 2, 2): 1,
       (2, 2, 1, 1): 1}


def test_lr_oracle_s21_squared():
    assert lr_product((2, 1), (2, 1)) == S21


def test_lr_oracle_s21_squared_in_3x3_box():
    assert truncate(lr_product((2, 1), (2, 1)), 3, 3) == {(3, 3): 1, (3, 2, 1): 2, (2, 2, 2): 1}


def test_lr_oracle_pieri_and_symmetry():
    assert lr_product((2,), (1,)) == {(3,): 1, (2, 1): 1}
    assert lr_product((3, 1), (2, 2)) == lr_product((2, 2), (3, 1))


def test_schubert_check_uses_the_render_format():
    text = b"s(4,2) + s(4,1,1) + s(3,3) + 2*s(3,2,1) + s(3,1,1,1) + s(2,2,2) + s(2,2,1,1)\n"
    argv = ("schubert", "mult", "2,1", "2,1", "--format", "text")
    assert checks.check(argv, 0, checks.digest(text), text, {}) is None
    assert checks.check(argv, 0, "", text.replace(b"2*", b""), {}) is not None
    boxed = ("schubert", "mult", "2,1", "2,1", "--box", "3,3", "--format", "latex")
    body = b"\\[ \\sigma_{3,3} + 2\\sigma_{3,2,1} + \\sigma_{2,2,2} \\]\n"
    assert checks.check(boxed, 0, "", body, {}) is None


def _span(i, parent, layer, name, start, end, counters=None):
    return [i, parent, layer, name, start, end, counters or {}]


SPANS = [
    _span(7, None, "lp", "import", -2.0, -1.0),
    _span(0, None, "polytope", "build_polytope", 0.0, 10.0, {"rows": 5}),
    _span(1, 0, "inequalities", "generate_all", 1.0, 6.0, {"emitted": 20}),
    _span(2, 1, "chern", "substitute", 2.0, 3.0),
    _span(3, 1, "chern", "substitute", 4.0, 4.5),
    _span(4, 0, "inequalities", "specialize", 7.0, 8.0),
    _span(5, None, "lp", "simplex_max", 11.0, 14.0, {"cells": 12, "nonoptimal": 1}),
    _span(6, None, "lp", "simplex_max", 15.0, 16.0, {"cells": 8, "nonoptimal": 0}),
]


def test_self_time_subtracts_children():
    selfs = tracer.self_times(SPANS)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(5.0 - 1.0 - 0.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, "a", "f", 0.0, 10.0), _span(1, 0, "b", "g", 1.0, 5.0),
             _span(2, 0, "b", "g", 3.0, 7.0)]
    assert tracer.self_times(spans)[0] == pytest.approx(4.0)


def test_request_layers_on_synthetic_tree():
    got = tracer.request_layers(SPANS)
    assert got["polytope.busy_s"] == pytest.approx(10.0)
    assert got["polytope.self_s"] == pytest.approx(4.0)
    assert got["inequalities.busy_s"] == pytest.approx(6.0)
    assert got["inequalities.self_s"] == pytest.approx(3.5 + 1.0)
    assert got["chern.busy_s"] == pytest.approx(1.5)
    assert got["chern.calls"] == 2
    assert got["lp.busy_s"] == pytest.approx(5.0)
    assert got["lp.calls"] == 2
    assert got["lp.max_call_s"] == pytest.approx(3.0)
    assert got["lp.tableau_cells"] == 20
    assert got["lp.nonoptimal"] == 1
    assert got["inequalities.generate_calls"] == 1
    assert got["inequalities.emitted"] == 20
    assert got["polytope.rows"] == 5
    assert got["polytope.emitted"] == 20
    assert got["top_s"] == pytest.approx(15.0)


def test_tail_has_ten_requests_beyond_it():
    xs = [float(i) for i in range(200)]
    value, pct = run.tail(xs)
    assert value == 189.0 and sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100 * 189 / 199)


def test_tail_is_p90_below_101_requests():
    xs = [float(i) for i in range(14)]
    value, pct = run.tail(xs)
    assert pct == pytest.approx(90.0)
    assert value == pytest.approx(statistics.quantiles(xs, n=10, method="inclusive")[-1])


def _certificate(max_value: str) -> dict:
    # t[2] + 1 >= 0 and -t[2] + 5 >= 0
    rows = [{"coeffs": ["1"], "constant": "1"}, {"coeffs": ["-1"], "constant": "5"}]
    bound = {"partition": [2], "min": "-1", "max": max_value, "min_status": "optimal",
             "max_status": "optimal"}
    chi = {"d1": "-1", "d2": "5", "d3": "0", "d4": "0", "statuses": ["optimal"] * 4}
    return {"hrep": {"n": 2, "coordinates": [[2]], "rows": rows},
            "certificate": {"coords": [bound]}, "chi": chi}


def test_float_lp_cross_check():
    assert checks._check_bounds(_certificate("5")) is None
    assert "max" in checks._check_bounds(_certificate("11/2"))


def test_tracer_catches_calls_through_imported_names(tmp_path):
    # cli and polytope call generate_all and simplex_max through their own bindings
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    argv = ["polytope", "--n", "3", "--m", "1", "--bounds", "--chi"]
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(Path(tracer.__file__)), str(spans), *argv],
                            env=env, capture_output=True, check=True)
    plain = subprocess.run([sys.executable, "-c", run.ENTRY, *argv], env=env,
                           capture_output=True, check=True)
    assert traced.stdout == plain.stdout
    got = tracer.request_layers(json.loads(spans.read_text()))
    assert got["lp.calls"] == 2 * 2 + 4  # min and max of 2 coordinates, then 4 for chi
    assert got["inequalities.generate_calls"] == 3
    assert got["polytope.rows"] > 0 and got["render.calls"] > 0


def test_metric_names_match_benchmark_json():
    outcome = run.Outcome(("todd", "1"), 2.0, 0, 1, False, "", "", 10,
                          tracer.request_layers(SPANS))
    per_layer, _ = run.per_layer_metrics([[outcome]], [[outcome]], run._units("per_layer"))
    assert list(per_layer) == list(run._units("per_layer"))
    outcome.failure = None
    end_to_end, _ = run.end_to_end_metrics([[outcome]], 0.05)
    assert list(end_to_end) == list(run._units("end_to_end"))
