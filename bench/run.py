"""whfactor benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

Usage:
  python3 bench/run.py --workload W --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. Every op is a closed loop with one client: the next op
starts when the previous one has ended and been checked, and no op starts
that would end past `--seconds` (at least one always runs, two when
tracing). `cli_*` ops each start a fresh `whfactor run` process
(bench/cli_child.py); `api_solve` ops run in one worker process
(bench/api_worker.py). While an untraced op runs, its process samples a
fixed calibration kernel (bench/calibrate.py); the times in the result
are rescaled by it to the reference host speed, and the raw ones are
printed before it.

With `--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer ones from a run where every other op is traced.
Scratch files live in `.bench_tmp/` of the checkout and are removed.
See bench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

import calibrate  # noqa: E402
import inputs  # noqa: E402
from checks import CheckError, check_cli_output  # noqa: E402
from tracer import COUNTERS, LAYERS, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
SETUP_REPS = 9
OP_TIMEOUT_S = 150
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "wall_ref_s.p50": "s",
    "cpu_ref_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_scaled": "1",
}


def per_layer_units():
    units = {}
    for name in LAYERS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.self_s": "s"})
    for key in COUNTERS:
        units[key] = "bytes" if key.endswith("bytes_computed") else "count"
    units["cli.output.bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# environment


def child_env():
    """Environment of every process started: checkout src, no bytecode, one BLAS/OpenMP thread.

    Each op then runs on one vCPU, next to its calibration passes, and a
    CPU time above the wall time means the program started threads itself.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(dict.fromkeys(THREAD_CAPS, "1"))
    return env


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(env):
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "thread_caps": {key: env[key] for key in THREAD_CAPS},
    }


# ---------------------------------------------------------------------------
# processes


def run_child(cmd, env, cwd):
    """Run a child to completion; returns (exit code, stdout, stderr tail, wall s, rusage)."""
    err_path = Path(cwd) / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read().decode("utf-8", errors="replace")
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr_tail = err_path.read_text(errors="replace")[-400:].strip()
    return proc.returncode, stdout, stderr_tail, wall, usage


def import_times(env, tmp):
    """Wall time of fresh interpreters importing whfactor; checks where it came from."""
    times = []
    for _ in range(SETUP_REPS):
        code, out, err, wall, _ = run_child(
            [sys.executable, "-c", "import whfactor; print(whfactor.__file__)"], env, tmp)
        if code != 0:
            raise SystemExit(f"error: cannot import whfactor from {SRC}: {err}")
        if not os.path.abspath(out.strip()).startswith(str(SRC) + os.sep):
            raise SystemExit(f"error: whfactor imported from {out.strip()}, not from {SRC}")
        times.append(wall)
    return times


def run_cli_op(cfg, workdir, env, traced, op_id):
    """One `whfactor run` process plus its output check; the op's record.

    The op's wall and CPU time are the process's own minus its calibration passes.
    """
    workdir.mkdir(parents=True)
    try:
        cfg_path = workdir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = workdir / "out"
        args = ["run", "--config", str(cfg_path), "--output-dir", str(out_dir)]
        record = workdir / "record.json"
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(record), str(op_id),
               "1" if traced else "0", *args]
        code, stdout, stderr, wall, usage = run_child(cmd, env, workdir)
        rec = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
               "rss_mb": usage.ru_maxrss / 1024.0, "traced": traced, "calibration": []}
        try:
            child = json.loads(record.read_text())
            rec["calibration"] = child["calibration"]
            rec["wall_s"] -= sum(w for w, _ in rec["calibration"])
            rec["cpu_s"] -= sum(c for _, c in rec["calibration"])
            residuals, size = check_cli_output(cfg, str(out_dir), code, stdout)
            rec.update(ok=True, residual_sup=max(residuals), output_bytes=size)
            if traced:
                rec["spans"] = child["spans"]
        except (CheckError, OSError, ValueError, KeyError) as exc:
            rec.update(ok=False, reason=f"{exc}; stderr: {stderr}" if code else str(exc))
        return rec
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cli_ops(workload, seed, seconds, trace, size, env, tmp):
    """Run the ops; returns (op records, calibration passes of all ops)."""
    rng = inputs.rng_for(workload, seed)
    ops, durations = [], []
    start = time.perf_counter()
    while True:
        i = len(ops)
        cfg, scale = inputs.cli_config(workload, rng, size)
        t0 = time.perf_counter()
        rec = run_cli_op(cfg, tmp / f"op{i}", env, trace and i % 2 == 0, i)
        rec.update(scale=scale, order=cfg["order"], timed=True)
        ops.append(rec)
        durations.append(time.perf_counter() - t0)
        if inputs.finished(time.perf_counter() - start, durations, seconds, 2 if trace else 1):
            return ops, [p for op in ops for p in op["calibration"]]


def api_ops(seed, seconds, trace, size, env, tmp):
    """Run the api_solve worker; returns (worker output, its peak RSS in MB)."""
    cmd = [sys.executable, str(BENCH / "api_worker.py"), str(SRC), str(seed), str(seconds),
           "1" if trace else "0", size, str(SETUP_REPS)]
    code, stdout, stderr, _, usage = run_child(cmd, env, tmp)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        failed = {"ok": False, "timed": True, "reason": f"worker exit {code}: {stderr}"}
        return {"setup_s": [], "ops": [failed], "calibration": []}, usage.ru_maxrss / 1024.0
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (percentile, value) or None."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def residual_scaled(workload, ops):
    """Geometric mean over ops of node residual_sup / scale^(order+1).

    api_solve alternates two strategies whose constants differ, so only
    whole (canonical-zero, minimize-remainder-infinity) pairs of timed ops
    enter; a failed op gives no value.
    """
    timed = [op for op in ops if op["timed"]]
    if workload == "api_solve":
        timed = timed[: 2 * (len(timed) // 2)]
    key = "node_residual" if workload == "api_solve" else "residual_sup"
    logs = [math.log(op[key] / op["scale"] ** (op["order"] + 1))
            for op in timed if op["ok"] and op[key] > 0]
    return math.exp(statistics.fmean(logs)) if logs else -1.0


def end_to_end(workload, ops, setup_s, peak_rss_mb, cal):
    """(result metrics, raw figures): medians over the timed ops that passed.

    The result's times are rescaled by calibrate.factors(cal); a median is
    -1 where no op passed (the run is then not correct).
    """
    good = [op for op in ops if op["timed"] and op["ok"]]

    def median(key):
        return statistics.median(op[key] for op in good) if good else -1.0

    wall_factor, cpu_factor = calibrate.factors(cal)
    raw = {"wall_s.p50": median("wall_s"), "cpu_s.p50": median("cpu_s"), "setup_s": setup_s,
           "host_factor.wall": wall_factor, "host_factor.cpu": cpu_factor,
           "calibration_passes": len(cal)}
    metrics = {
        "wall_ref_s.p50": raw["wall_s.p50"] * wall_factor if good else -1.0,
        "cpu_ref_s.p50": raw["cpu_s.p50"] * cpu_factor if good else -1.0,
        "setup_s": setup_s * wall_factor,
        "peak_rss_mb": peak_rss_mb if peak_rss_mb is not None else median("rss_mb"),
        "residual_scaled": residual_scaled(workload, ops),
    }
    return metrics, raw


def per_layer(ops, layers):
    """Layer figures plus output bytes and the traced-minus-untraced median wall time."""
    good = [op for op in ops if op["timed"] and op["ok"]]
    traced = [op["wall_s"] for op in good if op.get("traced")]
    untraced = [op["wall_s"] for op in good if not op.get("traced")]
    sizes = [op["output_bytes"] for op in good if "output_bytes" in op]
    metrics = dict(layers)
    metrics["cli.output.bytes"] = statistics.fmean(sizes) if sizes else 0.0
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)
                                   if traced and untraced else -1.0)
    return metrics


def tally(ops):
    """(attempted, failed): an op fails when it raises, exits non-zero or fails its check."""
    return len(ops), sum(1 for op in ops if not op["ok"])


def report(workload, seed, ops, metrics, units, env_info, raw=None):
    print("env " + json.dumps(env_info, sort_keys=True))
    for i, op in enumerate(ops):
        status = "ok" if op["ok"] else f"FAILED: {op['reason']}"
        timing = f"wall {op['wall_s']:.3f} s cpu {op['cpu_s']:.3f} s" if "wall_s" in op else "no timing"
        kind = "warm-up" if not op["timed"] else ("traced" if op.get("traced") else "timed")
        print(f"op {i} [{kind}] {timing} {status}")
    attempted, failed = tally(ops)
    walls = [op["wall_s"] for op in ops if op["timed"] and op["ok"]]
    t = tail(walls)
    print(f"workload {workload} seed {seed}: {attempted} ops, fail_ratio {failed / attempted:g}")
    if t:
        print(f"wall_s.tail p{t[0]:.1f} = {t[1]:.4f} s over {len(walls)} ops")
    else:
        print(f"wall_s.tail n/a: {len(walls)} timed ops, needs 11")
    for name, value in (raw or {}).items():
        print(f"raw {name} = {value:.6g}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "whfactor" / "__init__.py").is_file():
        print(f"error: no whfactor package under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        env_info = environment(env)
        env_info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, size=args.size)
        setup_s = statistics.median(import_times(env, tmp))
        trace = bool(args.trace)
        if args.workload == "api_solve":
            result, peak_rss = api_ops(args.seed, args.seconds, trace, args.size, env, tmp)
            ops, cal = result["ops"], result["calibration"]
            if result["setup_s"]:
                setup_s += statistics.median(result["setup_s"])
            layers = result.get("layers")
        else:
            ops, cal = cli_ops(args.workload, args.seed, args.seconds, trace, args.size, env, tmp)
            peak_rss = None
            layers = summarize([op["spans"] for op in ops if "spans" in op]) if trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    if trace:
        units = per_layer_units()
        metrics, raw = per_layer(ops, layers or summarize([])), None
    else:
        units = END_TO_END_UNITS
        metrics, raw = end_to_end(args.workload, ops, setup_s, peak_rss, cal)
    attempted, failed = report(args.workload, args.seed, ops, metrics, units, env_info, raw)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
