"""Self-test of the benchmark: every listed workload, briefly, at one seed.

    python3 perfbench/selftest.py [--seconds 2]

For each workload in BENCHMARK.json, traced and untraced, asserts that
the run exits 0, prints the result as its last line with every named
metric and its unit, that every op was checked, and that no op failed.
Then asserts that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 1 on the first failure.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(spec, workload, seconds, trace, cwd=ROOT):
    return subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(SEED),
                           "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(spec, workload, seconds, trace) -> None:
    proc = run(spec, workload, seconds, trace)
    label = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, f"{label}: incorrect\n{proc.stderr}"
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    expected = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{label}: metrics {got} != {units}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    passed = re.search(r"passed=(\d+) failed=(\d+)", proc.stderr)
    assert passed and int(passed.group(1)) == result["attempted"], (
        f"{label}: not every op was checked\n{proc.stderr}"
    )
    print(f"ok  {label}: {result['attempted']} ops checked", flush=True)


def check_refuses_without_program(spec, workload) -> None:
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec, workload, 1, 0, cwd=bare)
        assert proc.returncode != 0, "ran without the program"
        assert "metrics" not in proc.stdout, "printed a result without the program"
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without the program", flush=True)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=2.0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        for workload in spec["workloads"]:
            for trace in (0, 1):
                check_run(spec, workload["name"], args.seconds, trace)
        check_refuses_without_program(spec, spec["workloads"][0]["name"])
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
