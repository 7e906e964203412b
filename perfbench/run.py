"""Benchmark of the e510 engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree.  Every repetition runs in a fresh
interpreter (perfbench/rep.py), because the engine's module-level caches would
otherwise carry over and a second repetition would measure a different
program.  Repetitions run one after another until `--seconds` have passed;
the one running at that moment is finished.

Every time the benchmark reports is at a reference speed of the machine (see
speed.py): while a repetition runs, a timer samples how fast the machine runs
Python, and each measured interval, without the samples, is scaled by it.  On
a shared host this keeps the figures steady while neighbours come and go.
The report line gives the unscaled times beside them.

With `--trace 0` each run also starts a few interpreters that only set up,
so that `setup_s` is a median of several set-ups.  With `--trace 1`
untraced and traced repetitions alternate; the traced ones wrap the library's
layers (perfbench/tracer.py), and the result holds the per-layer metrics and
the tracing overhead, traced `wall_s` over untraced `wall_s`.

The last line of standard output is the result: `correct`, `attempted`,
`failed` and `metrics`.  The line before it is a report with the percentile
behind `op_tail_ms`, the sample counts, every repetition's numbers, the
failure ratio and the environment (git SHA, Python version, CPU count).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import at_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 12
RUN_LIMIT_S = 170  # no repetition starts or runs past this point of a run

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = [
    "sl5.dominated_depth.calls", "sl5.dominated_depth.self_s",
    "sl5.root_coefficients.self_s",
    "uminus.pbw_monomials.self_s", "uminus.omega_basis.self_s",
    "uminus.normal_form.calls", "uminus.order_cache.size",
    "linalg.RowReducer.insert.calls", "linalg.RowReducer.insert.self_s",
    "linalg.RowReducer.insert.useful_ratio", "linalg.null_space.self_s",
    "fmodules.TensorModule.ensure_weight.calls",
    "fmodules.TensorModule.ensure_weight.self_s",
    "fmodules.glact_vector.zterms.calls", "fmodules.glact_vector.zterms.self_s",
    "fmodules.glact_vector.build.calls", "fmodules.glact_vector.build.self_s",
    "fmodules.act_entries.calls", "fmodules.act_entries.self_s",
    "fmodules.act_entries.cache_hit_ratio", "fmodules.build_irreducible.self_s",
    "verma._lift_singular.calls", "verma._lift_singular.self_s",
    "verma._lift_singular.hit_ratio",
    "verma._stacked_solver.calls", "verma._stacked_solver.self_s",
    "verma._stacked_solver.cache_hit_ratio",
    "verma.is_singular.calls", "verma.is_singular.self_s",
    "verma._l0_mono.cache_hit_ratio", "verma._odd_action.cache_hit_ratio",
    "verma._gen_on_theta.self_s", "verma.check_morphism.self_s",
    "verma.verify_degree_equations.self_s", "verma.theta_decomposition.self_s",
    "verma.dual_morphism.self_s", "verma.compose.self_s",
    "verma.morphism_from_singular.self_s", "bench.op.self_s",
    "trace.overhead_ratio",
]
UNITS = {"calls": "count", "size": "count", "self_s": "s", "useful_ratio": "ratio",
         "hit_ratio": "ratio", "cache_hit_ratio": "ratio", "overhead_ratio": "ratio"}


class RepFailed(Exception):
    pass


def percentile(values, p):
    """Linear-interpolated p-th percentile of the values."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(ops_per_rep):
    """Highest of p75/p90/p95/p99 with at least ten of one repetition's
    operations beyond it; p75 when none has (the tail is then flagged)."""
    fits = [p for p in (75, 90, 95, 99) if ops_per_rep * (100 - p) >= 1000]
    return max(fits, default=75)


def start_rep(args, trace, mode, deadline):
    """Run one repetition.  Returns its set-up time as measured and at the
    reference speed, and its parsed result (None for a set-up probe)."""
    cmd = [sys.executable, str(HERE / "rep.py"), args.workload, str(args.seed),
           "1" if trace else "0", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(deadline - t0, 1)):
                raise RepFailed("no set-up within the time limit")
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        word, *slices = line.split()
        if word != "ready" or len(slices) != 2:
            raise RepFailed(f"set-up failed: {line.strip() or 'no output'}")
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        proc.kill()
        proc.wait()
        raise RepFailed(str(exc)) from None
    if proc.returncode != 0:
        raise RepFailed(f"repetition exited with code {proc.returncode}")
    slices = float(slices[0]), int(slices[1])
    setup_s -= slices[0]
    result = json.loads(rest.strip().splitlines()[-1]) if mode == "run" else None
    return (setup_s, at_reference(setup_s, slices, slices)), result


def timings(reps, tail_p, scaled):
    """Median wall time of the repetitions, and percentiles over operations of
    each operation's median latency; scaled to the reference speed or not."""
    wall, lat = ("wall_ref_s", "ref_latencies_ms") if scaled else ("wall_s", "latencies_ms")
    op_ms = [statistics.median(ops) for ops in zip(*(rep[lat] for rep in reps))]
    return {"wall": statistics.median(rep[wall] for rep in reps),
            "p50": percentile(op_ms, 50), "tail": percentile(op_ms, tail_p)}


def layer_values(rep):
    """Per-layer metrics of one traced repetition.  Self times are scaled to
    the reference speed like the repetition's wall time; they include the
    calibration slices that ran inside them, about one percent."""
    layers = rep["layers"]
    speed = rep["wall_ref_s"] / rep["wall_s"]
    out = {}
    for metric in PER_LAYER:
        layer, stat = metric.rsplit(".", 1)
        if stat.endswith("ratio"):
            row = layers.get(layer, {"calls": 0, "hits": 0})
            value = row["hits"] / row["calls"] if row["calls"] else 0.0
        else:
            value = layers.get(layer, {}).get(stat, 0)
        out[metric] = value * speed if stat == "self_s" else value
    return out


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "e510" / "__init__.py").is_file():
        sys.exit(f"perfbench: no e510 sources under {ROOT / 'src'}")
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    setups, reps, traced = [], [], []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(start_rep(args, False, "setup", deadline)[0])
        longest = 0.0
        while True:
            now = time.perf_counter()
            if reps and (traced or not args.trace) and \
                    (now - start >= args.seconds or now + longest > deadline):
                break
            trace = bool(args.trace) and len(traced) < len(reps)
            t = time.perf_counter()
            setup_s, rep = start_rep(args, trace, "run", deadline)
            longest = max(longest, time.perf_counter() - t)
            (traced if trace else reps).append(rep)
            setups.append(setup_s)
    except RepFailed as exc:
        sys.exit(f"perfbench: {args.workload} seed {args.seed}: {exc}")

    workload = WORKLOADS[args.workload](args.seed)
    tail_p = tail_percentile(workload.ops_per_rep())
    every = reps + traced
    attempted = sum(rep["attempted"] for rep in every)
    failed = sum(rep["failed"] for rep in every)
    digests_agree = all(rep["digests"] == reps[0]["digests"] for rep in every)
    raw = timings(reps, tail_p, False)
    ref = timings(reps, tail_p, True)

    if args.trace:
        per_rep = [layer_values(rep) for rep in traced]
        values = {m: statistics.median(r[m] for r in per_rep) for m in PER_LAYER}
        values["trace.overhead_ratio"] = timings(traced, tail_p, True)["wall"] / ref["wall"]
        metrics = {m: {"value": v, "unit": UNITS[m.rsplit(".", 1)[1]]}
                   for m, v in values.items()}
    else:
        values = {
            "wall_s": ref["wall"],
            "op_p50_ms": ref["p50"],
            "op_tail_ms": ref["tail"],
            "setup_s": statistics.median(ref_s for _, ref_s in setups),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "reps": len(reps), "traced_reps": len(traced),
        "unscaled": {
            "wall_s": {"value": raw["wall"], "unit": "s"},
            "op_p50_ms": {"value": raw["p50"], "unit": "ms"},
            "op_tail_ms": {"value": raw["tail"], "unit": "ms"},
            "setup_s": {"value": statistics.median(s for s, _ in setups), "unit": "s"},
        },
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "ops_per_rep": workload.ops_per_rep(), "op_tail_percentile": tail_p,
        "op_tail_ops_beyond": workload.ops_per_rep() * (100 - tail_p) / 100,
        "digests": len(reps[0]["digests"]), "digests_agree": digests_agree,
        "rep_wall_s": [rep["wall_s"] for rep in reps],
        "rep_wall_ref_s": [rep["wall_ref_s"] for rep in reps],
        "traced_wall_ref_s": [rep["wall_ref_s"] for rep in traced],
        "setup_samples_s": setups,
        "problems": [p for rep in every for p in rep["problems"]][:20],
        "spans": [rep["spans"] for rep in traced][-1:],
        "span_count": [rep["span_count"] for rep in traced],
        "elapsed_s": time.perf_counter() - start,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and digests_agree, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
