"""One repetition of a workload in a fresh interpreter.

Started by run.py as `python3 perfbench/rep.py <workload> <seed> <trace> <mode>`
from the root of a source tree.  It imports e510 from `src/`, builds the
uminus tables the workload needs and prints `ready <slice seconds> <slices>`,
the calibration slices run so far (see speed.py).  With mode `setup` it stops
there.  With mode `run` it then runs the workload's operations and prints one
JSON line with the timings, the checks and, when traced, the per-layer
summary and the path of the span file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from speed import Speedometer, at_reference

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    name, seed, trace, mode = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    with Speedometer() as meter:
        sys.path.insert(0, str(ROOT / "src"))
        from e510 import fmodules, linalg, sl5, uminus, verma

        import workloads

        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(sl5, uminus, linalg, fmodules, verma)
        workload = workloads.WORKLOADS[name](seed)
        for d in workload.degrees:
            uminus.pbw_monomials(d)
            uminus.omega_basis(d)
        print(f"ready {meter.spent!r} {meter.count}", flush=True)
        if mode == "setup":
            return

        rec = workloads.Recorder(meter, tracer.span if tracer is not None else None)
        mark = meter.mark()
        t0 = time.perf_counter()
        workload.run(verma, rec)
        elapsed = time.perf_counter() - t0
        phase = meter.since(mark)

    wall_s = elapsed - phase[0]
    out = {
        "wall_s": wall_s,
        "wall_ref_s": at_reference(wall_s, phase, phase),
        "latencies_ms": [s * 1e3 for s, _ in rec.times],
        "ref_latencies_ms": [at_reference(s, slices, phase) * 1e3 for s, slices in rec.times],
        "attempted": rec.attempted,
        "failed": rec.failed,
        "problems": rec.problems,
        "digests": rec.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = tracer.summary()
        for fn in ("_l0_mono", "_odd_action"):
            info = getattr(verma, fn).cache_info()
            layers[f"verma.{fn}"] = {"calls": info.hits + info.misses, "self_s": 0.0,
                                     "hits": info.hits}
        layers["uminus.order_cache"] = {"size": len(uminus._order_cache)}
        spans = ROOT / ".bench_build" / "perfbench" / f"{name}-seed{seed}.spans.tsv.gz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans)
        out["layers"] = layers
        out["spans"] = str(spans.relative_to(ROOT))
        out["span_count"] = len(tracer.span_name)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
