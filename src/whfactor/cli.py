"""Configuration-driven runner: factor a problem, emit CSV tables and JSON diagnostics.

Subcommands:
  run      factor the configured problem and write factors.csv,
           remainders.csv, diagnostics.json into the output directory
  figures  shortcut: normalized first-remainder table for one variant
  alphas   print the recurrence coefficients alpha_r

Exit codes: 0 success, 2 configuration error, 3 numerical failure.

Output files are byte-deterministic for a fixed config: every float is
rendered with 17 significant digits, columns are comma-separated, lines end
with a bare newline, and JSON keys are sorted. Non-finite diagnostic values
are stored as null; a config holding a non-finite number is rejected.

One renderer, _csv_lines, writes every CSV row: a table is a run of blocks
of rows, each cell has one format, and a repeat is formatted once (a
column constant within a block once per block, the grid's x once per grid).

One problem path: the example gives a closed-form M0 per phi, a custom
problem one at the placeholder phi = 0.0. Each is sampled, shifted, checked
against its declared total index (engine.check_total_index), factored and
diagnosed; the example adds its first-remainder table. The module reads
configs and writes files: every diagnostic rule, grid cap included, lives
in the engine, and the JSON objects of the factor conditions and the
convergence diagnostics carry their records' own field names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import cauchy, example2x2, rbvp
from .engine import (
    _BUILTIN_STRATEGIES,
    ExplicitConstants,
    NumericalError,
    alpha_coefficients,
    build_lambda0,
    c_mu_lower_bound,
    check_factor_conditions,
    check_total_index,
    convergence_constant,
    run_factorization,
)
from .evaluators import ClosedForm
from .grid import MobiusGrid, sample


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_STRATEGIES = tuple(sorted([*_BUILTIN_STRATEGIES, ExplicitConstants.name]))


@dataclass(eq=False)
class CustomProblem:
    indices: tuple
    lambda_s: int
    m0: ClosedForm


@dataclass(eq=False)
class RunConfig:
    problem: str
    variant: Optional[int] = None
    phi_list: Optional[list] = None
    order: int = 2
    grid_points: int = 2048
    mu: float = 0.5
    c_mu: float = 1.0
    strategy: str = "canonical-zero"
    explicit_constants: Optional[list] = None
    output_dir: str = "whfactor-out"
    refine_check: int = 1
    custom: Optional[CustomProblem] = None


_KNOWN_KEYS = {f.name for f in fields(RunConfig)}
_MINIMUMS = {"order": 1, "grid_points": 64, "refine_check": 1}


def _require_int(data, key, default):
    if key not in data:
        return default
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer")
    if v < _MINIMUMS[key]:
        raise ConfigError(f"{key} must be >= {_MINIMUMS[key]}, got {v}")
    return v


def _require_output_dir(data, default):
    out = data.get("output_dir", default)
    if not isinstance(out, str) or not out:
        raise ConfigError("output_dir must be a nonempty string")
    return out


def _finite_real(v, where):
    """v as a finite float; the ConfigError names where."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a real number")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite, got {v}")
    return v


def _require_real(data, key, default):
    return _finite_real(data[key], key) if key in data else default


def _as_complex(v, where):
    parts = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
    if any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in parts):
        raise ConfigError(f"{where} entries must be numbers or [re, im] pairs")
    return complex(*(_finite_real(p, where) for p in parts))


def _parse_block_list(raw):
    if not isinstance(raw, list) or not raw:
        raise ConfigError("explicit_constants must be a nonempty list of matrices")
    blocks = []
    for bi, block in enumerate(raw):
        if not isinstance(block, list) or not block or not all(isinstance(r, list) for r in block):
            raise ConfigError(f"explicit_constants[{bi}] must be a matrix (list of rows)")
        width = len(block[0])
        if any(len(r) != width for r in block):
            raise ConfigError(f"explicit_constants[{bi}] has ragged rows")
        mat = np.array(
            [[_as_complex(v, f"explicit_constants[{bi}]") for v in row] for row in block]
        )
        blocks.append(mat)
    return blocks


def _parse_custom(raw):
    if not isinstance(raw, dict):
        raise ConfigError("custom must be an object with indices, lambda_s, m0_spec")
    unknown = set(raw) - {"indices", "lambda_s", "m0_spec"}
    if unknown:
        raise ConfigError(f"unknown custom key(s): {', '.join(sorted(unknown))}")
    for key in ("indices", "lambda_s", "m0_spec"):
        if key not in raw:
            raise ConfigError(f"custom problem is missing required key {key}")
    idx = raw["indices"]
    if not isinstance(idx, list) or not idx or any(
        isinstance(v, bool) or not isinstance(v, int) for v in idx
    ):
        raise ConfigError("indices must be a nonempty list of integers")
    try:
        profile = rbvp.split_indices(idx)
    except ValueError as exc:  # UnstableIndicesError included
        raise ConfigError(f"indices: {exc}") from exc
    ls = raw["lambda_s"]
    if isinstance(ls, bool) or not isinstance(ls, int):
        raise ConfigError("lambda_s must be an integer")
    if ls != profile.s:
        raise ConfigError(
            f"lambda_s must equal the smallest index ({profile.s}), got {ls}"
        )
    try:
        m0 = ClosedForm.from_dict(raw["m0_spec"])
        real_pole = m0.has_real_pole()
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ConfigError(f"m0_spec: {exc}") from exc
    n = profile.n
    if m0.shape != (n, n):
        raise ConfigError(f"m0_spec must describe a {n} x {n} matrix, got {m0.shape}")
    if real_pole:
        raise ConfigError("m0_spec has a pole on the real axis")
    try:
        limit = m0.limit_at_infinity()
    except ValueError as exc:
        raise ConfigError(f"m0_spec: {exc}") from exc
    bad = np.argwhere(~np.isfinite(limit))
    if bad.size:
        raise ConfigError("m0_spec: entry ({},{}) has no finite limit at infinity".format(*bad[0]))
    return CustomProblem(indices=tuple(idx), lambda_s=ls, m0=m0)


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document; every failure names the offending key."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too deep, too many digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if "problem" not in data:
        raise ConfigError("missing required key problem")
    problem = data["problem"]
    if problem not in ("example", "custom"):
        raise ConfigError(f"problem must be 'example' or 'custom', got {problem!r}")

    cfg = RunConfig(problem=problem)
    cfg.order = _require_int(data, "order", cfg.order)
    cfg.grid_points = _require_int(data, "grid_points", cfg.grid_points)
    cfg.refine_check = _require_int(data, "refine_check", cfg.refine_check)
    cfg.mu = _require_real(data, "mu", cfg.mu)
    if not 0.0 < cfg.mu < 1.0:
        raise ConfigError(f"mu must lie strictly inside (0, 1), got {cfg.mu}")
    cfg.c_mu = _require_real(data, "c_mu", cfg.c_mu)
    if cfg.c_mu <= 0.0:
        raise ConfigError(f"c_mu must be positive, got {cfg.c_mu}")
    cfg.strategy = data.get("strategy", cfg.strategy)
    if cfg.strategy not in _STRATEGIES:
        raise ConfigError(
            f"strategy must be one of {', '.join(_STRATEGIES)}, got {cfg.strategy!r}"
        )
    if cfg.strategy == "explicit":
        if "explicit_constants" not in data:
            raise ConfigError("strategy 'explicit' requires explicit_constants")
        cfg.explicit_constants = _parse_block_list(data["explicit_constants"])
    elif "explicit_constants" in data:
        raise ConfigError("explicit_constants is only valid with strategy 'explicit'")
    cfg.output_dir = _require_output_dir(data, cfg.output_dir)

    if problem == "example":
        if "custom" in data:
            raise ConfigError("custom applies to the custom problem only")
        if "variant" not in data:
            raise ConfigError("missing required key variant")
        v = data["variant"]
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v <= 3:
            raise ConfigError(f"variant must be an integer in 0..3, got {v!r}")
        cfg.variant = v
        if "phi_list" not in data:
            raise ConfigError("missing required key phi_list")
        pl = data["phi_list"]
        if not isinstance(pl, list) or not pl:
            raise ConfigError("phi_list must be a nonempty list")
        phis = []
        for p in pl:
            if isinstance(p, bool) or not isinstance(p, (int, float)) or not p > 0:
                raise ConfigError(f"phi_list entries must be positive reals, got {p!r}")
            phis.append(_finite_real(p, "phi_list entries"))
        cfg.phi_list = phis
    else:
        for key in ("variant", "phi_list"):
            if key in data:
                raise ConfigError(f"{key} applies to the example problem only")
        if "custom" not in data:
            raise ConfigError("missing required key custom")
        cfg.custom = _parse_custom(data["custom"])
    return cfg


# ---------------------------------------------------------------------------
# output rendering


def _fmt(v) -> str:
    return "%.17g" % float(v)


def _x_text(grid) -> list:
    return list(map("%.17g".__mod__, grid.x_nodes.tolist()))


def _csv_lines(blocks):
    """The CSV lines of each block in turn; a block is one cell per column.

    A cell is a str, the same on every row; a list of texts, one per row
    (the grid's x, from _x_text); or a float array. An array that holds one
    value, judged by its bytes so that -0.0 and 0.0 keep their own text, is
    formatted once into the block's line, any other row by row.
    """
    for block in blocks:
        cells, columns = [], []
        for cell in block:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, list):
                cells.append("%s")
                columns.append(cell)
            else:
                raw = cell.tobytes()
                if raw == raw[:8] * len(cell):
                    cells.append(_fmt(cell[0]))
                else:
                    cells.append("%.17g")
                    columns.append(cell.tolist())
        line = ",".join(cells) + "\n"
        yield from map(line.__mod__, zip(*columns))


def _write_csv(path, header, blocks):
    """Write the header line, then the lines of the blocks (see _csv_lines)."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_csv_lines(blocks))


def _factor_blocks(results, x_text):
    """factors.csv blocks: one per (phi, component, p, q)."""
    for phi, res, _, _ in results:
        n = res.profile.n
        for name, smf in (
            ("h_minus", res.h_minus),
            ("h_plus", res.h_plus),
            ("lambda", res.lambda_factor),
        ):
            for p in range(n):
                for q in range(n):
                    col = smf.data[p, q]
                    yield _fmt(phi), x_text, name, str(p + 1), str(q + 1), col.real, col.imag


def _figure_blocks(rows, x_text):
    """remainders.csv blocks: one per (phi, p, q) of figure_data's rows, x as text."""
    for block in rows.reshape(-1, len(x_text), rows.shape[1]):
        cells = list(block.T)
        cells[2] = x_text
        yield cells


def _json_safe(v):
    v = float(v)
    return v if math.isfinite(v) else None


def _record_json(record):
    """A report record as a JSON object: its own field names, bools as they are, floats made safe."""
    return {key: v if isinstance(v, bool) else _json_safe(v) for key, v in asdict(record).items()}


def _phi_entry(phi, result, report, diag):
    return {
        "phi": _json_safe(phi),
        "order_requested": result.order,
        "order_reached": result.order_reached,
        "residual_sup": _json_safe(result.residual_sup),
        "per_step_norms": [[_json_safe(r.sup_n_plus), _json_safe(r.sup_n_minus)] for r in result.steps],
        "per_step_remainder_sup": [_json_safe(r.sup_remainder) for r in result.steps],
        "factor_conditions": _record_json(report),
        "convergence": _record_json(diag),
    }


def run(config: RunConfig) -> dict:
    """Execute one configured run; returns a summary with the written paths.

    All results are computed before anything is written; a failure after
    writing began removes the partial files.
    """
    grid = MobiusGrid.build(config.grid_points)
    if config.problem == "example":
        profile = rbvp.split_indices((1, 0))
        problems = [(phi, example2x2.build_example(phi).M0) for phi in config.phi_list]
    else:
        profile = rbvp.split_indices(config.custom.indices)
        problems = [(0.0, config.custom.m0)]

    strategy = config.strategy
    if strategy == "explicit":
        n, k = profile.n, profile.k
        for bi, block in enumerate(config.explicit_constants):
            if block.shape != (n - k, n):
                raise ConfigError(
                    f"explicit_constants[{bi}] must be {n - k} x {n} for this problem, "
                    f"got {block.shape[0]} x {block.shape[1]}"
                )
        strategy = ExplicitConstants(config.explicit_constants)

    lambda0 = build_lambda0(profile, grid)
    results = []
    for phi, m0_form in problems:
        m0 = rbvp.shift_density(sample(m0_form, grid), profile.s)
        try:
            check_total_index(lambda0, m0, profile)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        res = run_factorization(
            lambda0, m0, profile, config.order, strategy=strategy, refine_check=config.refine_check
        )
        diag = convergence_constant(m0, config.mu, config.c_mu)
        results.append((phi, res, check_factor_conditions(res), diag))

    if config.problem == "example":
        _, fig_rows = example2x2.figure_data(config.variant, config.phi_list, grid)
    else:
        fig_rows = np.empty((0, len(example2x2.FIGURE_COLUMNS)))

    residuals = [res.residual_sup for _, res, _, _ in results]
    ratios = [_json_safe(a / b) if b else None for a, b in zip(residuals, residuals[1:])]

    diagnostics = {
        "problem": config.problem,
        "variant": config.variant,
        "indices": list(profile.indices),
        "shift_s": profile.s,
        "leading_count_k": profile.k,
        "strategy": config.strategy,
        "order": config.order,
        "grid_points": config.grid_points,
        "refine_check": config.refine_check,
        "mu": config.mu,
        "c_mu": config.c_mu,
        "c_mu_empirical_lower_bound": _json_safe(c_mu_lower_bound(grid, config.mu)),
        "alpha": [_json_safe(a) for a in alpha_coefficients(12)],
        "per_phi": [_phi_entry(*entry) for entry in results],
        "residual_ratios": ratios,
    }

    os.makedirs(config.output_dir, exist_ok=True)
    factors_path = os.path.join(config.output_dir, "factors.csv")
    remainders_path = os.path.join(config.output_dir, "remainders.csv")
    diagnostics_path = os.path.join(config.output_dir, "diagnostics.json")
    written = []
    x_text = _x_text(grid)
    try:
        written.append(factors_path)
        _write_csv(factors_path, ("phi", "x", "component", "p", "q", "re", "im"),
                   _factor_blocks(results, x_text))
        written.append(remainders_path)
        _write_csv(remainders_path, example2x2.FIGURE_COLUMNS, _figure_blocks(fig_rows, x_text))
        written.append(diagnostics_path)
        with open(diagnostics_path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(diagnostics, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    return {
        "factors": factors_path,
        "remainders": remainders_path,
        "diagnostics": diagnostics_path,
        "residual_sup": residuals,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    config = parse_config(text)
    given = {key: v for key, v in vars(args).items() if v is not None}
    config.output_dir = _require_output_dir(given, config.output_dir)
    config.order = _require_int(given, "order", config.order)
    config.grid_points = _require_int(given, "grid_points", config.grid_points)
    summary = run(config)
    for key in ("factors", "remainders", "diagnostics"):
        print(f"wrote {summary[key]}")
    for value in summary["residual_sup"]:
        print(f"residual_sup {_fmt(value)}")
    return 0


def _parse_phi_args(tokens) -> list:
    phis = []
    for token in tokens:
        for piece in str(token).split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                value = float(piece)
            except ValueError as exc:
                raise ConfigError(f"phi: could not parse {piece!r}") from exc
            if not value > 0:
                raise ConfigError(f"phi values must be positive, got {value}")
            phis.append(_finite_real(value, "phi"))
    if not phis:
        raise ConfigError("phi: need at least one value")
    return phis


def _cmd_figures(args) -> int:
    given = vars(args)
    grid = MobiusGrid.build(_require_int(given, "grid_points", None))
    out = _require_output_dir(given, None)
    phis = _parse_phi_args(args.phi)
    header, rows = example2x2.figure_data(args.variant, phis, grid)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "remainders.csv")
    _write_csv(path, header, _figure_blocks(rows, _x_text(grid)))
    print(f"wrote {path}")
    return 0


def _cmd_alphas(args) -> int:
    if args.max_r < 1:
        raise ConfigError(f"--max must be >= 1, got {args.max_r}")
    values = alpha_coefficients(args.max_r)
    width = max(len(str(v)) for v in values)
    print("r".rjust(4) + "  " + "alpha_r".ljust(width) + "  decimal")
    for r, v in enumerate(values, start=1):
        print(f"{r:4d}  {str(v).ljust(width)}  {float(v):.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whfactor",
        description="Asymptotic factorization of matrix functions on the real line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a configured factorization")
    runp.add_argument("--config", required=True, help="path to a JSON config")
    runp.add_argument("--output-dir", default=None, help="override the config output_dir")
    runp.add_argument("--order", type=int, default=None, help="override the truncation order")
    runp.add_argument("--grid-points", type=int, default=None, help="override the grid size")

    figp = sub.add_parser("figures", help="normalized first-remainder table")
    figp.add_argument("--variant", type=int, required=True, choices=(0, 1, 2, 3))
    figp.add_argument("--phi", nargs="+", required=True, help="one or more positive values")
    figp.add_argument("--grid-points", type=int, default=2048)
    figp.add_argument("--output-dir", default=".")

    alp = sub.add_parser("alphas", help="print the recurrence coefficients")
    alp.add_argument("--max", type=int, default=12, dest="max_r")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "figures": _cmd_figures, "alphas": _cmd_alphas}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, cauchy.AccuracyError, FloatingPointError, OverflowError,
            RuntimeWarning) as exc:  # a RuntimeWarning arrives here when raised as an error
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
