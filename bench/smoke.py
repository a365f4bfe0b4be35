"""Smoke test of the benchmark harness at tiny sizes (about two minutes).

Usage: python3 bench/smoke.py

Checks that every workload, traced and untraced, prints each metric named
in BENCHMARK.json with its unit and passes its output checks; that a
truncated factors.csv makes an op fail; and that the harness refuses to
run, printing no result, when the checkout has no package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import inputs  # noqa: E402
import run  # noqa: E402


def run_harness(root, workload, trace):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=root)


def check_metrics_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in inputs.WORKLOADS:
            proc = run_harness(run.ROOT, workload, trace)
            if proc.returncode != 0:
                raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise AssertionError(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{workload}: ops failed\n{proc.stdout}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                raise AssertionError(f"{workload} trace {trace}: metrics {got} != {expected}")
            for name, unit in expected.items():
                if not any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines):
                    raise AssertionError(f"{workload}: no summary line for {name} in {unit}")
            print(f"ok: {workload} trace {trace}: {len(expected)} metrics")


def check_truncated_output_fails():
    real_check = run.check_cli_output

    def truncate_then_check(cfg, out_dir, code, stdout):
        path = Path(out_dir) / "factors.csv"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        return real_check(cfg, out_dir, code, stdout)

    cfg, _ = inputs.cli_config("cli_custom3", inputs.rng_for("cli_custom3", 7), "tiny")
    workdir = run.ROOT / ".bench_tmp" / f"smoke{os.getpid()}"
    run.check_cli_output = truncate_then_check
    try:
        rec = run.run_cli_op(cfg, workdir, run.child_env(), False, 0)
    finally:
        run.check_cli_output = real_check
        shutil.rmtree(workdir, ignore_errors=True)
    if rec["ok"] or "factors.csv" not in rec["reason"]:
        raise AssertionError(f"truncated factors.csv passed: {rec}")
    if run.tally([rec]) != (1, 1):
        raise AssertionError("truncated output not counted as a failed op")
    print(f"ok: truncated factors.csv fails the op ({rec['reason']})")


def check_refuses_without_source():
    bare = run.ROOT / ".bench_tmp" / f"bare{os.getpid()}"
    try:
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_harness(bare, "cli_default", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"ran without source: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok: no source -> exit {proc.returncode}, no result")


def main():
    check_truncated_output_fails()
    check_refuses_without_source()
    check_metrics_print()
    try:
        (run.ROOT / ".bench_tmp").rmdir()
    except OSError:
        pass
    print("smoke test passed")


if __name__ == "__main__":
    main()
