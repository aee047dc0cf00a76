"""End-to-end benchmark of the reproduction toolchain.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Workloads: ``paper``, ``steady_2k``, ``batch`` (see ``BENCHMARK.json``
and ``perfbench/README.md`` for why each exists).

With ``--trace 0`` the run measures ``--seconds`` of ops with tracing
off and reports ``setup_s``, ``op_p50_ms``, ``op_p90_ms``, ``ops_per_s``
and ``peak_rss_mb``.  With ``--trace 1`` it measures half the time
untraced and half traced, and reports per-layer self times and counts
plus the tracing overhead; the spans are written to
``.perfbench/traces/``.  Every op's output is checked after the timed
loop.  The last line of standard output is the JSON result; progress
goes to standard error.  The program is imported from ``src/`` beside
this directory; without it the run exits with status 2.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run behind ``setup_s``: this process plus fresh ones.
SETUP_SAMPLES = 5


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("paper", "steady_2k", "batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print {\"setup_s\": ...} and exit")
    return p.parse_args(argv)


def setup_probes(args, n: int) -> list[float]:
    """Set-up times of ``n`` fresh processes, run one after another."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def check_ops(workload, ops) -> tuple[int, list[str]]:
    """Check every completed op; returns (ops failed, messages)."""
    failed, messages = 0, []
    for op in ops:
        if op.error is None:
            try:
                workload.check(op)
                continue
            except AssertionError as exc:
                op.error = f"check failed: {exc}"
        failed += 1
        if len(messages) < 5:
            messages.append(f"op {op.index}: {op.error}")
    return failed, messages


def e2e_metrics(setup_s, ops, wall, rss_mb) -> dict:
    import numpy as np

    lat_ms = [op.latency_s * 1e3 for op in ops if op.error is None]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_p90_ms": {"value": float(np.percentile(lat_ms, 90)), "unit": "ms"},
        "ops_per_s": {"value": len(lat_ms) / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        log(f"no program sources at {SRC}")
        return 2
    if args.seconds <= 0 and not args.setup_only:
        log("--seconds must be positive")
        return 2
    # Deployment settings are set explicitly per workload; an inherited
    # REPRO_* variable would change what is measured.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer(unit_log=os.path.join(workdir, "units.log"))
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
    try:
        t = time.perf_counter()
        workload.import_layers()
        import_s = time.perf_counter() - t
        workload.start()
        t = time.perf_counter()
        workload.warmup()
        warmup_s = time.perf_counter() - t
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        log(f"set up in {setup_s:.3f} s (import {import_s:.3f} s, "
            f"warm-up {warmup_s:.3f} s)")

        if not args.trace:
            ops, wall = workload.run(args.seconds)
            # Read before the probes: they are child processes too.
            rss_mb = workload.peak_rss_mb()
            setups = [setup_s] + setup_probes(args, SETUP_SAMPLES - 1)
            metrics = e2e_metrics(statistics.median(setups), ops, wall, rss_mb)
        else:
            from repro.engine import get_registry

            untraced, _ = workload.run(args.seconds / 2)
            tracer.install()
            before = get_registry().snapshot()["counters"]
            tracer.enabled = True
            traced_ops, _ = workload.run(args.seconds / 2)
            tracer.enabled = False
            after = get_registry().snapshot()["counters"]
            ops = untraced + traced_ops
        failed, messages = check_ops(workload, ops)
        messages += workload.finish_checks(ops)
        if args.trace:
            from perlayer import layer_metrics

            metrics, document = layer_metrics(
                tracer, workload, untraced, traced_ops, before, after,
                {"import_s": import_s, "warmup_s": warmup_s},
            )
            path = os.path.join(os.path.dirname(workdir), "traces",
                                f"{args.workload}-seed{args.seed}.json")
            tracer.write(path, document)
            log(f"trace written to {os.path.relpath(path, ROOT)}")
    finally:
        workload.close()
    for message in messages:
        log(message)
    correct = failed == 0 and len(messages) == 0
    log(f"workload={args.workload} seed={args.seed} ops={len(ops)} "
        f"passed={len(ops) - failed} failed={failed} correct={correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
