"""Benchmark of the `chernbounds` command line, end to end and per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is imported from
`src/`, nothing needs building.  Load model: a closed loop with one client.
Each request is a fresh interpreter running the command line, started after
the previous one exited, because the program keeps process-wide caches that
a shared process would let later requests reuse.

A workload is a fixed sequence of requests drawn from the seed (see
`workloads.py`).  The run repeats the sequence in passes while the time
asked for lasts, at least one pass.  With `--trace 1` untraced and traced
passes alternate; traced requests run under `tracer.py`, which records a
span around each public function of each layer.

Every output is checked (`checks.py`) after the timed passes.  The last
stdout line is one JSON object: correct, attempted, failed and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
ENTRY = "import sys; from chernbounds.cli import main; sys.exit(main())"
SETUP_REPEATS = 31
REQUEST_TIMEOUT_S = 60.0


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass
class Outcome:
    """One request as the client saw it."""

    argv: tuple[str, ...]
    latency: float  # seconds from spawn to exit
    code: int
    maxrss_kb: int
    timed_out: bool
    error: str  # last traceback line, if any
    digest: str  # SHA-256 of stdout
    nbytes: int
    layers: dict | None = None  # per-layer sums of a traced request
    failure: str | None = None  # set once the output is checked


def _spawn(cmd: list[str], env: dict):
    """Run cmd to its end, draining its stdout and stderr through pipes.

    Returns (seconds from spawn to exit, exit code, rusage, timed out,
    stdout, stderr).  Pipes keep the outputs off the disk.
    """
    start = time.perf_counter()
    deadline = start + REQUEST_TIMEOUT_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=ROOT)
    fds = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {fd: [] for fd in fds}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in (proc.stdout, proc.stderr):
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(max(0.0, deadline - time.perf_counter()))
            if not ready and not timed_out:
                timed_out = True
                proc.kill()
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out, err = (b"".join(chunks[fd]) for fd in fds)
    return elapsed, proc.returncode, usage, timed_out, out, err


def _traceback_line(err: bytes) -> str:
    text = err.decode("utf-8", "replace")
    if "Traceback (most recent call last)" not in text:
        return ""
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else "Traceback"


def run_request(argv, env, bodies: dict, traced: bool) -> Outcome:
    spans_path = WORK / "spans.json"
    if traced:
        cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(spans_path), *argv]
        # a fresh file each time: truncating one just written flushes it to disk
        spans_path.unlink(missing_ok=True)
    else:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    latency, code, usage, timed_out, body, err = _spawn(cmd, env)
    digest = checks.digest(body)
    key = (argv, code, digest)
    if key not in bodies:
        bodies[key] = body if checks.needs_body(argv) else b""
    layers = None
    if traced and spans_path.exists():
        layers = tracer.request_layers(json.loads(spans_path.read_text()))
    return Outcome(argv, latency, code, usage.ru_maxrss, timed_out, _traceback_line(err),
                   digest, len(body), layers)


def measure_setup(env) -> float:
    """Median seconds for a fresh interpreter to finish `import chernbounds.cli`."""
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, code, *_ = _spawn([sys.executable, "-c", "import chernbounds.cli"], env)
        if code != 0:
            raise SystemExit("error: `import chernbounds.cli` failed")
        times.append(elapsed)
    return statistics.median(times)


def run_passes(requests, env, seconds: float, trace: bool):
    """Repeat the sequence while time remains; with trace, alternate plain and traced."""
    passes: list[tuple[bool, list[Outcome]]] = []
    bodies: dict = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, [run_request(argv, env, bodies, traced) for argv in requests]))
        elapsed = time.perf_counter() - start
        if trace and len(passes) < 2:
            continue
        # another pass only if it would end within half a pass of `seconds`
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes, bodies


def classify(outcome: Outcome, verdict: str | None) -> str | None:
    """Why a request failed, or None."""
    if outcome.timed_out:
        return "timeout"
    if outcome.error:
        return f"traceback: {outcome.error}"
    if outcome.code not in (0, 1, 2):
        return f"undocumented exit code {outcome.code}"
    if verdict:
        return f"check: {verdict}"
    return None


def is_known_defect(outcome: Outcome) -> bool:
    """Box-mode Pieri reads past the end of the partition (IndexError)."""
    return "--box" in outcome.argv and outcome.failure.startswith("traceback: IndexError")


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten requests beyond it.

    Below 101 requests that percentile is under p90, and under the median
    below 22, so the tail is then p90.  Percentiles interpolate between
    order statistics (`statistics.quantiles`, inclusive method).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n == 1:
        return xs[0], 100.0
    pos = max(0.9 * (n - 1), n - 11.0)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo]), 100.0 * pos / (n - 1)


def _per_pass(passes, traced: bool):
    return [p for t, p in passes if t == traced]


def end_to_end_metrics(plain, setup_s: float) -> tuple[dict, dict]:
    """The user-visible metrics over untraced passes, and details for the log."""
    outcomes = [o for p in plain for o in p]
    ok = [o.latency for o in outcomes if o.failure is None]
    if not ok:
        raise SystemExit("error: every request failed")
    tail_value, tail_pct = tail(ok)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(o.latency for o in p) for p in plain),
        "latency_p50_s": statistics.median(ok),
        "latency_tail_s": tail_value,
        "peak_rss_mb": max(o.maxrss_kb for o in outcomes) / 1024,
        "ok_ratio": len(ok) / len(outcomes),
    }
    details = {"tail_percentile": round(tail_pct, 2), "latency_samples": len(ok),
               "fail_ratio": 1 - metrics["ok_ratio"]}
    return metrics, details


def per_layer_metrics(plain, traced, names) -> tuple[dict, dict]:
    """Per-layer sums per traced pass, and each layer's share of traced request time."""
    sums: dict[str, float] = {}
    for o in (o for p in traced for o in p):
        layers = o.layers or {}
        for key, value in layers.items():
            if key == "lp.max_call_s":
                sums[key] = max(sums.get(key, 0.0), value)
            else:
                sums[key] = sums.get(key, 0) + value
        sums["render.out_bytes"] = sums.get("render.out_bytes", 0) + o.nbytes
        # request time outside every span
        sums["cli.self_s"] = sums.get("cli.self_s", 0.0) + o.latency - layers.get("top_s", 0.0)
    per = {k: (v if k == "lp.max_call_s" else v / len(traced)) for k, v in sums.items()}
    traced_s = sum(o.latency for p in traced for o in p) / len(traced)
    plain_s = sum(o.latency for p in plain for o in p) / len(plain)
    emitted = per.get("polytope.emitted", 0)
    per["polytope.kept_ratio"] = per.get("polytope.rows", 0) / emitted if emitted else 0.0
    per["trace.overhead_ratio"] = traced_s / plain_s
    metrics = {name: per[name] for name in names}
    shares = {f"{layer}.busy_s": round(per.get(f"{layer}.busy_s", 0.0) / traced_s, 4)
              for layer in tracer.LAYERS}
    return metrics, {"share_of_traced_request_time": shares, "traced_request_s": traced_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chernbounds" / "cli.py").is_file():
        sys.stderr.write(f"error: no program source at {ROOT / 'src' / 'chernbounds'}\n")
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    pins = checks.load_pins()
    requests = workloads.WORKLOADS[args.workload](random.Random(args.seed))

    # compile the program's bytecode once, as an installed program has it
    _spawn([sys.executable, "-c", "import chernbounds.cli"], env)
    setup_s = None if args.trace else measure_setup(env)
    passes, bodies = run_passes(requests, env, args.seconds, bool(args.trace))

    verdicts = {key: checks.check(*key, body, pins) for key, body in bodies.items()}
    outcomes = [o for _, p in passes for o in p]
    for o in outcomes:
        o.failure = classify(o, verdicts[(o.argv, o.code, o.digest)])
    failed = [o for o in outcomes if o.failure]
    unexpected = [o for o in failed if not is_known_defect(o)]

    plain, traced = _per_pass(passes, False), _per_pass(passes, True)
    details = {"workload": args.workload, "seed": args.seed, "requests_per_pass": len(requests),
               "plain_passes": len(plain), "traced_passes": len(traced),
               "known_defect_failures": len(failed) - len(unexpected),
               "unexpected_failures": [[" ".join(o.argv), o.failure] for o in unexpected[:5]]}
    if args.trace:
        units = _units("per_layer")
        metrics, extra = per_layer_metrics(plain, traced, units)
    else:
        units = _units("end_to_end")
        metrics, extra = end_to_end_metrics(plain, setup_s)
    details.update(extra)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps(details))
    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
