"""Output checks; each raises CheckError with the reason an op failed."""

from __future__ import annotations

import json
import math
import os

import numpy as np

FACTOR_HEADER = b"phi,x,component,p,q,re,im\n"
REMAINDER_HEADER = b"variant,phi,x,p,q,re_norm,im_norm,abs_norm,x_abs_norm\n"
OUTPUT_FILES = ("factors.csv", "remainders.csv", "diagnostics.json")


class CheckError(Exception):
    """An op's output is missing or wrong."""


def _csv_rows(path, header):
    """Data rows of a CSV file that starts with `header` and ends with a newline."""
    lines = 0
    last = b""
    with open(path, "rb") as fh:
        if fh.readline() != header:
            raise CheckError(f"{os.path.basename(path)}: header differs from the documented columns")
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    if lines and last != b"\n":
        raise CheckError(f"{os.path.basename(path)}: last row is cut off")
    return lines


def check_cli_output(cfg, out_dir, returncode, stdout):
    """Validate one `whfactor run`; returns (residual_sup list, output bytes)."""
    if returncode != 0:
        raise CheckError(f"exit code {returncode}")
    for name in OUTPUT_FILES:
        if not os.path.isfile(os.path.join(out_dir, name)):
            raise CheckError(f"{name} missing")
    n_grid = cfg["grid_points"]
    if cfg["problem"] == "example":
        n, n_phi, remainder_rows = 2, len(cfg["phi_list"]), 4 * n_grid * len(cfg["phi_list"])
    else:
        n, n_phi, remainder_rows = len(cfg["custom"]["indices"]), 1, 0
    rows = _csv_rows(os.path.join(out_dir, "factors.csv"), FACTOR_HEADER)
    if rows != 3 * n * n * n_grid * n_phi:
        raise CheckError(f"factors.csv has {rows} rows, expected {3 * n * n * n_grid * n_phi}")
    rows = _csv_rows(os.path.join(out_dir, "remainders.csv"), REMAINDER_HEADER)
    if rows != remainder_rows:
        raise CheckError(f"remainders.csv has {rows} rows, expected {remainder_rows}")
    try:
        with open(os.path.join(out_dir, "diagnostics.json"), encoding="ascii") as fh:
            diag = json.load(fh)
        reported = [entry["residual_sup"] for entry in diag["per_phi"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"diagnostics.json unreadable: {exc}") from exc
    printed = [float(line.split()[1]) for line in stdout.splitlines() if line.startswith("residual_sup ")]
    if len(printed) != n_phi or printed != reported:
        raise CheckError(f"stdout residual_sup {printed} does not match diagnostics.json {reported}")
    if not all(math.isfinite(v) for v in printed):
        raise CheckError(f"non-finite residual_sup {printed}")
    size = sum(os.path.getsize(os.path.join(out_dir, name)) for name in OUTPUT_FILES)
    return printed, size


def _sup(a):
    """Sup over nodes of the max-row-sum norm, as the package defines it."""
    return float(np.abs(a).sum(axis=-1).max())


def check_api_result(result, lambda0, m0, tol=1e-10):
    """Finite factors and Lambda0+ N_r+ + N_r- = M_(r-1) at the nodes for every step."""
    for name in ("h_minus", "h_plus"):
        if not np.all(np.isfinite(getattr(result, name).samples)):
            raise CheckError(f"{name} has non-finite samples")
    if not math.isfinite(result.residual_sup):
        raise CheckError(f"non-finite residual_sup {result.residual_sup}")
    l0 = lambda0.samples
    remainder = m0.samples
    plus, minus = [], []
    for r, rec in enumerate(result.steps, start=1):
        n_plus, n_minus = rec.solution.n_plus.samples, rec.solution.n_minus.samples
        gap = _sup(l0 @ n_plus + n_minus - remainder)
        if not gap <= tol:
            raise CheckError(f"step {r}: node identity off by {gap:.3g} (tolerance {tol:g})")
        plus.append(n_plus)
        minus.append(n_minus)
        remainder = -sum(minus[j] @ plus[r - 1 - j] for j in range(r))
