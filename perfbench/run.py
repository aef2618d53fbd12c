#!/usr/bin/env python3
"""Benchmark of gent: four workloads, end-to-end metrics, and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, verify, oracle, ingest (see perfbench/README.md).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
times the calls into each gent module and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the software and machine.  Result and trace files go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread, set before numpy loads and inherited by every CLI call.
# With the default of one thread per core, small matrices run slower (a
# one-mode N = 60 state build takes 13 ms instead of 1.2 ms on 2 cores) and
# timings swing whenever another process wants a core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONPATH"] = str(ROOT / "src")  # the CLI runs from the source tree
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

SETUP_REPEATS = 7
IMPORT_REPEATS = 5
MB = 1024 * 1024

END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "op_ms")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "op_ms": "ms"}


def _timed_import(statement: str) -> float:
    """Seconds that ``statement`` takes in a fresh interpreter."""
    code = f"import time; t0 = time.perf_counter(); {statement}; print(time.perf_counter() - t0)"
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                       check=True)
    return float(p.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / MB
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import envinfo
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        wl = workloads.WORKLOADS[args.workload](Path(workdir))
        result, extra, tracer = measure(wl, args, Tracer)
    env = envinfo.collect(ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **extra, **result}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"trace-{tag}.json", result["metrics"])
    print(json.dumps({"env": env, **extra}))
    print(json.dumps(result))
    return 0


def measure(wl, args, tracer_cls):
    """Set up, run whole rounds for ``args.seconds``, check; (result, extra, tracer)."""
    from timing import Clock
    from workloads import CliRound

    setup = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t_import = _timed_import(wl.setup_import)
        t0 = perf_counter()
        wl.generate(args.seed)
        setup.append(t_import + perf_counter() - t0)
    wl.warmup()

    # A round: a pass over the in-process inputs, then the workload's CLI
    # calls.  Traced runs add a traced pass over the same inputs before the
    # CLI calls; the ratio of the two passes is the tracing overhead.
    tracer = tracer_cls() if args.trace else None
    rounds, traced_rounds, cli = [], [], CliRound()
    first = None
    t_begin = perf_counter()
    while True:
        t_round = perf_counter()
        rounds.append(wl.run_round(Clock(), None, first and first.outputs))
        first = first or rounds[0]
        if tracer is not None:
            with tracer.patched():
                traced_rounds.append(wl.run_round(Clock(), tracer, first.outputs))
        cli.add(wl.run_cli())
        if perf_counter() - t_begin + (perf_counter() - t_round) > args.seconds:
            break
    measured_s = perf_counter() - t_begin
    rss = _peak_rss_mb()

    problems = [f"{r.mismatches} outputs differ from the first round's"
                for r in rounds + traced_rounds if r.mismatches]
    found, figures = wl.check(first, cli)
    problems += [p for p in found if p]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    done = rounds + traced_rounds
    attempted = sum(r.ops for r in done) + len(cli.times) + cli.failed
    failed = sum(r.failed for r in done) + cli.failed

    # In-process times are scaled by the machine's speed (timing.py); set-ups
    # run in other processes, mostly starting an interpreter and reading
    # files, which the kernel does not model.
    def e2e(scaled: bool) -> dict:
        f = (lambda x: x.factor) if scaled else (lambda x: 1.0)
        op_times = [w.op_median * f(w) for r in rounds for w in r.windows
                    if w.op_median is not None]
        return {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
            "ops_per_s": statistics.median(r.ops / (r.seconds * f(r)) for r in rounds),
            "op_ms": statistics.median(op_times) * 1e3,
        }

    extra = {"rounds": len(rounds), "measured_s": measured_s, "checks": figures,
             "problems": problems[:20], "speed_factors": [r.factor for r in rounds],
             "cli_s": cli.times}
    if tracer is None:
        values = e2e(True)
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}
        extra["raw"] = e2e(False)
    else:
        import layers

        overhead = (statistics.median(r.seconds * r.factor for r in traced_rounds)
                    / statistics.median(r.seconds * r.factor for r in rounds) - 1.0)
        imports = [_timed_import("import gent.cli") for _ in range(IMPORT_REPEATS)]
        metrics = layers.per_layer(tracer, imports, cli.times, overhead)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, extra, tracer


if __name__ == "__main__":
    sys.exit(main())
