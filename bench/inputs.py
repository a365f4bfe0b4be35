"""Seeded inputs for the benchmark workloads, and the closed-loop stop rule.

Every input comes from `random.Random(f"{workload}:{seed}")`, drawn in op
order, so a seed fixes the whole sequence of configs. Draws are never
filtered or retried. Each op also carries `scale`, the size of its
perturbation (the largest phi, or the amplitude of the custom M0): the
truncation residual of an order-R run is about C * scale^(R+1), so
residual / scale^(R+1) is comparable across seeds.

The ranges stay inside the convergent regime. The divergent one
(`minimize-remainder-infinity` at phi near 0.29, where the remainders grow)
is a correctness subject, not benchmark traffic.
"""

from __future__ import annotations

import math
import random
import statistics

WORKLOADS = ("cli_default", "cli_custom3", "api_solve")

# grid points, order, and draw ranges per workload; "tiny" is the smoke size
SIZES = {
    "full": {
        "cli_default": {"grid_points": 2048, "order": 2, "p": (0.1, 0.3)},
        "cli_custom3": {"grid_points": 2048, "order": 4, "eps": (0.02, 0.04)},
        "api_solve": {"grid_points": 65536, "order": 6, "phi": (0.02, 0.15), "refine_check": 2},
    },
    "tiny": {
        "cli_default": {"grid_points": 256, "order": 2, "p": (0.1, 0.3)},
        "cli_custom3": {"grid_points": 256, "order": 2, "eps": (0.02, 0.04)},
        "api_solve": {"grid_points": 512, "order": 3, "phi": (0.02, 0.15), "refine_check": 2},
    },
}

API_STRATEGIES = ("canonical-zero", "minimize-remainder-infinity")


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


def cli_config(workload, rng, size="full"):
    """One `whfactor run` config and its perturbation scale."""
    s = SIZES[size][workload]
    base = {"order": s["order"], "grid_points": s["grid_points"]}
    if workload == "cli_default":
        p = rng.uniform(*s["p"])
        cfg = {"problem": "example", "variant": 1, "phi_list": [p, p / 2, p / 4],
               "strategy": "canonical-zero", **base}
        return cfg, p
    if workload == "cli_custom3":
        eps = rng.uniform(*s["eps"])
        cfg = {"problem": "custom",
               "custom": {"indices": [2, 2, 1], "lambda_s": 1, "m0_spec": custom3_m0(rng, eps)},
               "strategy": "minimize-remainder-infinity", **base}
        return cfg, eps
    raise ValueError(f"{workload} is not a CLI workload")


def custom3_m0(rng, eps):
    """3x3 M0 with entries a e^(i w x) / (x -+ i b), |a| = eps (diagonal) or 0.6 eps.

    Poles, phases and coefficient angles follow a fixed pattern with a small
    seeded jitter, so the seed moves the problem without changing its kind.
    """
    rows = []
    for p in range(3):
        row = []
        for q in range(3):
            k = 3 * p + q
            b = (0.8 + 0.15 * k) * (1 + rng.uniform(-0.02, 0.02))
            pole = b if k % 2 == 0 else -b  # den x + i b: pole in the lower half-plane
            angle = 2 * math.pi * k / 9 + rng.uniform(-0.03, 0.03)
            phase = (-1.0 + 0.25 * k) * (1 + rng.uniform(-0.02, 0.02))
            amp = eps if p == q else 0.6 * eps
            row.append([{"num": [[amp * math.cos(angle), amp * math.sin(angle)]],
                         "den": [[0.0, pole], [1.0, 0.0]], "phase": phase}])
        rows.append(row)
    return {"entries": rows}


def api_op(rng, index, size="full"):
    """(phi, strategy) for the index-th api_solve op; strategies alternate."""
    s = SIZES[size]["api_solve"]
    return rng.uniform(*s["phi"]), API_STRATEGIES[index % 2]


def finished(elapsed, durations, seconds, min_ops=1):
    """Closed-loop stop rule: stop when the next op would likely end past `seconds`."""
    return len(durations) >= min_ops and elapsed + statistics.median(durations) > seconds
