"""Per-layer spans around the public functions of `chernbounds`, from outside.

Run as `python3 perfbench/tracer.py SPANS_FILE ARGV...`: this behaves like
the `chernbounds` command with ARGV (same output, same exit code), and
writes the request's spans to SPANS_FILE as JSON when it ends.

Modules import functions by name (`from .lp import simplex_max`), so a
wrapper replaces the binding in every `chernbounds` module that holds the
original function, not only in the defining one.  Spans are kept in memory
as [id, parent id, layer, function, start, end, counters].

The rest of the module turns span lists into per-layer metrics and imports
nothing from the program, so the benchmark can use it without loading the
program into its own process.
"""

from __future__ import annotations

import importlib
import importlib.abc
import importlib.util
import json
import sys
import time
import types

#: layer -> (module, public functions wrapped there)
LAYERS = {
    "lp": ("lp", ("simplex_max",)),
    "inequalities": ("inequalities", ("generate_all", "specialize")),
    "chern": ("chern", (
        "gauss_pullback_chern", "chern_s_to_schubert", "schubert_class_in_chern_s",
        "schubert_class_in_chern_s_dual", "substitute", "special_to_chern_s",
    )),
    "schubert": ("schubert", ("multiply", "pieri_multiply", "special_expansion", "is_effective")),
    "polytope": ("polytope", ("build_polytope", "boundedness_certificate", "chi_bounds",
                              "lp_optimize")),
    "todd": ("todd", ("todd_polynomial", "chi_structure_sheaf_functional")),
    "render": ("render", (
        "certificate_to_json", "certificate_to_latex", "certificate_to_text", "chern_to_json",
        "hrep_to_json", "inequality_to_json", "render_chern", "render_inequality",
        "render_ratio_row", "render_schubert", "schubert_to_json",
    )),
    "verify": ("verify", ("run_section",)),
}


def _counters(name: str, args, result) -> dict:
    if name == "simplex_max":
        rows, cols = len(args[0]), len(args[2])
        # structural, slack, auxiliary and right-hand-side columns
        return {"cells": rows * (cols + rows + 2), "nonoptimal": int(result.status != "optimal")}
    if name == "generate_all":
        return {"emitted": len(result)}
    if name == "build_polytope":
        return {"rows": len(result)}
    if name == "run_section":
        return {"mismatches": sum(not r.matches for r in result)}
    return {}


class Recorder:
    """Collects the spans of one request."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, layer, name, clock(), None, {}]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            span[6] = _counters(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def time_imports(self) -> None:
        """Record loading each layer's module as an `import` span of that layer.

        Must run before the program is imported.  Loading is work every
        request pays, and it keeps a layer a request never calls from
        reading exactly 0 s.
        """
        layer_of = {f"chernbounds.{module}": layer for layer, (module, _) in LAYERS.items()}
        recorder = self

        class Finder(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path, target=None):
                if name not in layer_of:
                    return None
                sys.meta_path.remove(self)
                try:
                    spec = importlib.util.find_spec(name)
                finally:
                    sys.meta_path.insert(0, self)
                loader = spec.loader
                spec.loader = types.SimpleNamespace(
                    create_module=loader.create_module,
                    exec_module=recorder.wrap(layer_of[name], "import", loader.exec_module),
                )
                return spec

        sys.meta_path.insert(0, Finder())

    def install(self) -> None:
        """Replace each function of LAYERS in every module that binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "chernbounds" or n.startswith("chernbounds.")]
        for layer, (module_name, names) in LAYERS.items():
            home = importlib.import_module(f"chernbounds.{module_name}")
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    recorder.time_imports()
    import chernbounds.cli

    recorder.install()
    try:
        return chernbounds.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


# ---------------------------------------------------------------------------
# span arithmetic (used by the benchmark process)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    out = {}
    for s in spans:
        inner = [(max(c[4], s[4]), min(c[5], s[5])) for c in children.get(s[0], [])]
        out[s[0]] = (s[5] - s[4]) - _covered([i for i in inner if i[1] > i[0]])
    return out


def _ancestors(spans_by_id, span):
    parent = span[1]
    while parent is not None:
        up = spans_by_id[parent]
        yield up
        parent = up[1]


def request_layers(spans) -> dict[str, float]:
    """Per-layer metrics of one request's spans (sums; max for lp.max_call_s).

    Time metrics include `import` spans; call counts do not.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, float] = dict.fromkeys(
        ("lp.tableau_cells", "lp.nonoptimal", "polytope.rows", "verify.mismatches",
         "inequalities.generate_calls", "inequalities.emitted", "polytope.emitted"), 0)

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for layer in LAYERS:
        add(f"{layer}.busy_s", _covered([(s[4], s[5]) for s in spans if s[2] == layer]))
        add(f"{layer}.self_s", sum(selfs[s[0]] for s in spans if s[2] == layer))
        add(f"{layer}.calls", sum(1 for s in spans if s[2] == layer and s[3] != "import"))
    out["lp.max_call_s"] = max((s[5] - s[4] for s in spans if s[2] == "lp"), default=0.0)
    for s in spans:
        counters = s[6]
        add("lp.tableau_cells", counters.get("cells", 0))
        add("lp.nonoptimal", counters.get("nonoptimal", 0))
        add("polytope.rows", counters.get("rows", 0))
        add("verify.mismatches", counters.get("mismatches", 0))
        if s[3] == "generate_all":
            add("inequalities.generate_calls", 1)
            add("inequalities.emitted", counters.get("emitted", 0))
            if any(up[3] == "build_polytope" for up in _ancestors(by_id, s)):
                add("polytope.emitted", counters.get("emitted", 0))
    out["top_s"] = sum(s[5] - s[4] for s in spans if s[1] is None)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
