"""api_solve: the README library loop, run in one process.

Usage: python3 bench/api_worker.py SRC SEED SECONDS TRACE SIZE SETUP_REPS

Times `MobiusGrid.build` + `build_lambda0` SETUP_REPS times, runs one
warm-up op per strategy, then ops one after another until the next would
end past SECONDS. One op samples the example M0 at a seeded phi, runs
`run_factorization(refine_check=2)`, `check_factor_conditions`, one
off-line `evaluate_h_plus` and `evaluate_h_minus`, and the node residual
`residual_sup_at(1)`. During each timed, untraced op a calibrate.Sampler
times the calibration kernel; the op's time excludes the passes. Prints
one JSON line with the set-up times, the per-op records and the passes.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.dont_write_bytecode = True

import calibrate  # noqa: E402
import inputs  # noqa: E402
from checks import CheckError, check_api_result  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

WARMUP_OPS = len(inputs.API_STRATEGIES)


def solve_op(lib, grid, lambda0, profile, phi, strategy, order, refine):
    m0 = lib.sample(lib.build_example(phi).M0, grid)
    res = lib.run_factorization(lambda0, m0, profile, order, strategy=strategy, refine_check=refine)
    lib.check_factor_conditions(res)
    res.evaluate_h_plus(2.0 + 1.5j)
    res.evaluate_h_minus(2.0 - 1.5j)
    return m0, res, res.residual_sup_at(1)


def main(argv):
    src, seed, seconds, trace, size, setup_reps = argv
    seconds, trace, setup_reps = float(seconds), trace == "1", int(setup_reps)
    import whfactor as lib

    if not os.path.abspath(lib.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"whfactor imported from {lib.__file__}, not from {src}")
    s = inputs.SIZES[size]["api_solve"]
    profile = lib.split_indices((1, 0))
    setup = []
    for _ in range(setup_reps):
        t0 = time.perf_counter()
        grid = lib.MobiusGrid.build(s["grid_points"])
        lambda0 = lib.build_lambda0(profile, grid)
        setup.append(time.perf_counter() - t0)

    tracer = Tracer()
    if trace:
        tracer.install()
    rng = inputs.rng_for("api_solve", seed)
    ops = []
    start = None
    durations = []
    sampler = calibrate.Sampler()
    index = 0
    while True:
        if index == WARMUP_OPS:
            start = time.perf_counter()
        phi, strategy = inputs.api_op(rng, index, size)
        timed = index >= WARMUP_OPS
        traced = trace and timed and (index - WARMUP_OPS) % 2 == 0
        t_loop = time.perf_counter()
        rec = {"timed": timed, "traced": traced, "scale": phi}
        tracer.begin_op(index, enabled=traced)
        if timed and not traced:
            sampler.start()
        sampled_wall, sampled_cpu = sampler.wall, sampler.cpu
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            m0, res, node = solve_op(lib, grid, lambda0, profile, phi, strategy, s["order"], s["refine_check"])
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            res, error = None, exc
        sampler.stop()
        rec["wall_s"] = time.perf_counter() - t0 - (sampler.wall - sampled_wall)
        rec["cpu_s"] = time.process_time() - c0 - (sampler.cpu - sampled_cpu)
        tracer.end_op()
        try:
            if res is None:
                raise error
            rec.update(order=res.order, residual_sup=res.residual_sup, node_residual=node)
            check_api_result(res, lambda0, m0)
            rec["ok"] = True
        except (CheckError, ArithmeticError, ValueError, RuntimeError) as exc:
            rec.update(ok=False, reason=f"{type(exc).__name__}: {exc}")
        ops.append(rec)
        index += 1
        if timed:
            durations.append(time.perf_counter() - t_loop)
            if inputs.finished(time.perf_counter() - start, durations, seconds, 2 if trace else 1):
                break
    out = {"setup_s": setup, "ops": ops, "calibration": sampler.passes}
    if trace:
        out["layers"] = summarize([tracer.dump()])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
