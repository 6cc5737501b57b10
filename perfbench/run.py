"""polybound benchmark: one workload, one seed, one closed-loop run.

Run from the repository root:

    python3 perfbench/run.py --workload theorem0-sweep --seed 1 --seconds 12 --trace 0

Operations run one at a time. After one untimed warm-up block, whole blocks
(see workloads.py) run until their summed operation time reaches --seconds.
Every output is then checked, untimed; an operation fails if it raised or if
a check failed. The report lines name each metric with its unit, and the
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 runs blocks for a third
of the time, each operation once to warm up, once untraced and once with spans
around the library's public functions (tracing.py), and reports the
per-layer metrics and the tracing overhead. Its spans go to
perfbench/out/spans-<workload>.npz.

--workload known-failures, which BENCHMARK.json does not list, runs the
inputs that make_pool.py rejected: the library's baseline failures.

`correct` is false when a check finds a broken guarantee that the library
states for every input (see workloads.Failure) or when the traced pass's
outputs differ from the untraced ones. Fresh samples beating an empirical
constant, and exceptions, are counted in `failed` only.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # before the timed loop, and as many again after it


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import, load and build the first block, then print "
                        "the monotonic clock and exit")
    return p.parse_args(argv)


def import_polybound():
    """Import polybound.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "polybound" / "__init__.py").is_file():
        raise SystemExit(f"error: no polybound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import polybound.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    import_s = time.perf_counter() - t0
    got = Path(sys.modules["polybound"].__file__).resolve()
    if SRC.resolve() not in got.parents:
        raise SystemExit(f"error: polybound imported from {got}, not from {SRC}")
    return import_s


def setup_probe(args) -> int:
    import_s = import_polybound()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    wl.block(args.seed, 0, wl.load())
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
    return 0


def measure_setup(args, setup, imports) -> None:
    """Append set-up time and polybound.cli import time of SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        setup.append(probe["ready"] - t0)
        imports.append(probe["import_s"])


def timed_run(op):
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # counted as a failed operation, never skipped
        out = exc
    return out, time.perf_counter() - t0


def run_blocks(wl, seed, ctx, seconds, tracer=None):
    """Run whole blocks until their untraced operation time reaches `seconds`.

    The first block runs once untimed to warm up. With a tracer, each
    operation runs three times in a row instead: once to warm up, then
    untraced and traced, so both timed runs see the same state. Returns
    ([(op, output or exception, seconds)], blocks run, untraced time,
    [(traced output, seconds)])."""
    results, traced, b, timed = [], [], 0, 0.0
    if tracer is None:
        for op in wl.block(seed, 0, ctx):  # warm-up: a first run maps its memory
            timed_run(op)
    while timed < seconds:
        for op in wl.block(seed, b, ctx):
            if tracer is not None:
                timed_run(op)
            out, dt = timed_run(op)
            results.append((op, out, dt))
            timed += dt
            if tracer is not None:
                tracer.op = len(traced)
                with tracer.active():
                    traced.append(timed_run(op))
        b += 1
    return results, b, timed, traced


def check_all(results):
    """[(failures, constants)] per operation, untimed."""
    import workloads

    checked = []
    for op, out, _ in results:
        if isinstance(out, Exception):
            checked.append(([workloads.Failure(f"raised {type(out).__name__}: {out}")], []))
            continue
        try:
            fails = op.check(out)
        except Exception as exc:  # a check that cannot complete fails the operation
            fails = [workloads.Failure(f"check raised {type(exc).__name__}: {exc}")]
        checked.append((fails, op.constants(out)))
    return checked


def tail(times):
    """(value, percentile, ops beyond) at the highest percentile with >= 10
    operations beyond it; the maximum when there are 10 or fewer operations."""
    s = sorted(times)
    k = max(len(s) - 11, 0) if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def fingerprint(out) -> str:
    """Deterministic text of an operation's output, to compare traced and untraced runs."""
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    parts = out if isinstance(out, tuple) else (out,)
    return json.dumps([p.to_json() for p in parts], sort_keys=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    import_polybound()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    ctx = wl.load()
    setup, imports = [], []
    measure_setup(args, setup, imports)
    print(f"polybound benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    # a traced run spends a third of its time in each of its three passes
    results, blocks, timed, traced = run_blocks(
        wl, args.seed, ctx, args.seconds / 3 if tracer else args.seconds, tracer)
    if tracer:
        tracer.save(HERE / "out" / f"spans-{args.workload}.npz")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measure_setup(args, setup, imports)

    checked = check_all(results)
    if args.trace:
        for (fails, _), (_, out, _), (tout, _) in zip(checked, results, traced):
            if fingerprint(out) != fingerprint(tout):
                fails.append(workloads.Failure("traced output differs from untraced", True))
    attempted = len(results)
    failed = sum(1 for fails, _ in checked if fails)
    correct = not any(f.contract for fails, _ in checked for f in fails)
    times = [dt for _, _, dt in results]
    print(f"ops {attempted} attempted, {attempted - failed} passed, {failed} failed, "
          f"{timed:.3f} s of operation time in {blocks} blocks")

    if args.trace:
        metrics = {k: v for k, v in tracing.layer_metrics(tracer).items()}
        metrics["cli.import_s"] = (statistics.median(imports), "s")
        traced_timed = sum(dt for _, dt in traced)
        metrics["trace.overhead"] = (traced_timed / timed - 1.0, "ratio")
        metrics["trace.spans"] = (tracer.span_count, "count")
        print(f"trace: {tracer.span_count} spans; traced pass {traced_timed:.3f} s vs "
              f"untraced {timed:.3f} s on the same {blocks} blocks")
        top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:8]
        print("trace: largest self times " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    else:
        tail_s, tail_pct, beyond = tail(times)
        metrics = {
            "ops_per_s": ((attempted - failed) / timed, "ops/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        # Printed, not in the result line: too wide a run-to-run spread, or
        # zero or absent on some workloads (see perfbench/BASELINE.md).
        print(f"op_tail_s {tail_s:.6g} s (p{tail_pct:.1f} of {attempted} ops, {beyond} beyond it)")
        print(f"fail_rate {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
        print(f"setup_s is the median of {len(setup)} fresh interpreters, half of them "
              "started before the timed loop and half after it: "
              + ", ".join(f"{s:.4f}" for s in setup))
    if wl.issues_certificates:
        ledger = [[i, op.label, c] for i, ((op, _, _), (_, consts)) in
                  enumerate(zip(results, checked)) for c in consts]
        values = [c for _, _, c in ledger]
        gmean = math.exp(statistics.fmean(math.log(c) for c in values)) if values else float("nan")
        print(f"constant_gmean {gmean:.6g} (geometric mean of {len(values)} constants)")
        print("constants " + json.dumps({"workload": args.workload, "seed": args.seed,
                                         "ledger": ledger}))
    mix: dict[str, list[float]] = {}
    for op, _, dt in results:
        words = op.label.split()
        mix.setdefault(" ".join(words[:2]), []).append(dt)
    print("cost mix: " + "; ".join(
        f"{k} {len(v)} ops {sum(v):.2f} s ({100 * sum(v) / timed:.0f}%)"
        for k, v in sorted(mix.items(), key=lambda kv: -sum(kv[1]))))
    for i, ((op, _, _), (fails, _)) in enumerate(zip(results, checked)):
        for f in fails:
            print(f"failure op {i} [{op.label}]{' (contract)' if f.contract else ''}: {f.reason}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
