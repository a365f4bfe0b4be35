"""Config parsing, run outputs, determinism, exit codes."""

import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from whfactor import cli, engine, example2x2, rbvp
from whfactor.cli import ConfigError, RunConfig, main, parse_config, run
from whfactor.grid import MobiusGrid, hoelder_norm, node_det, sample, winding


def _example_cfg(**over):
    data = {"problem": "example", "variant": 1, "phi_list": [0.5]}
    data.update(over)
    return json.dumps(data)


def test_parse_config_defaults():
    cfg = parse_config(_example_cfg())
    assert cfg.problem == "example" and cfg.variant == 1
    assert cfg.phi_list == [0.5]
    assert cfg.order == 2 and cfg.grid_points == 2048 and cfg.refine_check == 1
    assert cfg.mu == 0.5 and cfg.c_mu == 1.0
    assert cfg.strategy == "canonical-zero" and cfg.explicit_constants is None
    assert cfg.output_dir == "whfactor-out" and cfg.custom is None


@pytest.mark.parametrize(
    "text,needle",
    [
        ("not json", "not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
        (_example_cfg(bogus=1), "unknown config key"),
        ('{"variant": 1}', "missing required key problem"),
        ('{"problem": "other"}', "problem must be"),
        ('{"problem": "example", "phi_list": [0.5]}', "missing required key variant"),
        (_example_cfg(variant=7), "variant must be"),
        (_example_cfg(variant=True), "variant must be"),
        ('{"problem": "example", "variant": 1}', "missing required key phi_list"),
        (_example_cfg(phi_list=[]), "phi_list must be a nonempty list"),
        (_example_cfg(phi_list=[0.5, -0.1]), "must be positive"),
        (_example_cfg(phi_list=[True]), "must be positive reals"),
        (_example_cfg(order=0), "order must be >= 1"),
        (_example_cfg(order=2.5), "order must be an integer"),
        (_example_cfg(grid_points=32), "grid_points must be >= 64"),
        (_example_cfg(mu=1.5), "mu must lie strictly inside"),
        (_example_cfg(mu=True), "mu must be a real number"),
        (_example_cfg(c_mu=0.0), "c_mu must be positive"),
        (_example_cfg(strategy="magic"), "strategy must be one of"),
        (_example_cfg(strategy="explicit"), "requires explicit_constants"),
        (_example_cfg(explicit_constants=[[[0.0, 0.0]]]), "only valid with strategy"),
        (_example_cfg(output_dir=""), "output_dir must be a nonempty string"),
        (_example_cfg(custom={}), "custom applies to the custom problem only"),
        # non-finite numbers, one per key, and JSON that json.loads cannot take
        (_example_cfg(c_mu=float("inf")), "c_mu must be finite, got inf"),
        (_example_cfg(mu=float("nan")), "mu must be finite, got nan"),
        ('{"problem": "example", "variant": 1, "phi_list": [1e999]}',
         "phi_list entries must be finite, got inf"),
        (_example_cfg(strategy="explicit", explicit_constants=[[[0.0, [1.0, float("nan")]]]]),
         r"explicit_constants\[0\] must be finite, got nan"),
        ("[" * 200000 + "]" * 200000, "not valid JSON"),
        ('{"order": ' + "9" * 5000 + "}", "not valid JSON"),
    ],
)
def test_parse_config_rejections(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(text)


def test_strategy_names_come_from_the_engine_registry():
    assert set(cli._STRATEGIES) == set(engine._BUILTIN_STRATEGIES) | {"explicit"}
    with pytest.raises(ConfigError) as err:
        parse_config(_example_cfg(strategy="magic"))
    assert str(err.value) == (
        "strategy must be one of canonical-zero, explicit, minimize-remainder-infinity, "
        "got 'magic'"
    )


def test_parse_explicit_constants():
    text = _example_cfg(
        strategy="explicit",
        explicit_constants=[[[0.0, [1.0, -2.0]]]],
    )
    cfg = parse_config(text)
    (block,) = cfg.explicit_constants
    assert block.shape == (1, 2)
    assert block[0, 1] == 1.0 - 2.0j
    with pytest.raises(ConfigError, match="ragged"):
        parse_config(_example_cfg(strategy="explicit",
                                  explicit_constants=[[[0.0, 0.0], [0.0]]]))
    with pytest.raises(ConfigError, match="must be a matrix"):
        parse_config(_example_cfg(strategy="explicit", explicit_constants=[7]))
    with pytest.raises(ConfigError, match="numbers or"):
        parse_config(_example_cfg(strategy="explicit",
                                  explicit_constants=[[["x", 0.0]]]))


def _custom_m0_spec():
    # 0.05i exp(i x) / (x + i) on the diagonal of a 2 x 2 zero background
    decay = {"num": [[0.0, 0.05]], "den": [[0.0, 1.0], [1.0, 0.0]], "phase": 1.0}
    zero = {"num": [[0.0, 0.0]]}
    return {"entries": [[[decay], [zero]], [[zero], [decay]]]}


def _custom_cfg(**over):
    data = {
        "problem": "custom",
        "custom": {"indices": [1, 0], "lambda_s": 0, "m0_spec": _custom_m0_spec()},
    }
    data.update(over)
    return json.dumps(data)


def test_parse_custom_config():
    cfg = parse_config(_custom_cfg())
    assert cfg.custom.indices == (1, 0)
    assert cfg.custom.lambda_s == 0
    assert cfg.custom.m0.shape == (2, 2)


def _first_term(data):
    return data["custom"]["m0_spec"]["entries"][0][0][0]


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda c: c.pop("custom"), "missing required key custom"),
        (lambda c: c["custom"].pop("indices"), "missing required key indices"),
        (lambda c: c["custom"].update(extra=1), "unknown custom key"),
        (lambda c: c["custom"].update(indices=[1, "a"]), "list of integers"),
        (lambda c: c["custom"].update(indices=[2, 0]), "unstable partial indices"),
        (lambda c: c["custom"].update(indices=[0, 1]), "non-increasing"),
        (lambda c: c["custom"].update(lambda_s=3), "lambda_s must equal"),
        (lambda c: c["custom"].update(m0_spec={"entries": [[[{"num": [[1.0, 0.0]]}]]]}),
         "must describe a 2 x 2"),
        (lambda c: c.update(variant=1), "applies to the example problem only"),
        (lambda c: _first_term(c).update(num=[[float("nan"), 0.05]]), "must be finite, got"),
        (lambda c: _first_term(c).update(den=[[float("nan"), 1.0], [1.0, 0.0]]), "must be finite"),
        (lambda c: _first_term(c).update(phase=float("inf")), "must be finite, got inf"),
        # the m0_spec format: [re, im] pairs of real numbers, a real phase, known keys
        (lambda c: _first_term(c).update(phase="1.0"), "must be real numbers, got '1.0'"),
        (lambda c: _first_term(c).update(phase=True), "must be real numbers, got True"),
        (lambda c: _first_term(c).update(num=[[0.0, 0.05, 7.0]]), r"must be \[re, im\] pairs"),
        (lambda c: _first_term(c).update(num=[[True, 0.05]]), "must be real numbers, got True"),
        (lambda c: _first_term(c).update(dem=_first_term(c).pop("den")), "unknown term key.*: dem"),
        (lambda c: c["custom"]["m0_spec"].update(shap=[2, 2]), "unknown spec key.*: shap"),
        # every entry needs a finite limit at infinity: x^2 e^(ix) / (x + i)
        # grows, (0.01i + 0.01x) e^(ix) / (x + i) keeps oscillating, and
        # 1e300 x / (1e-300 x + i) tends to 1e600
        (lambda c: _first_term(c).update(num=[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
         r"^m0_spec: entry \(0,0\) has no limit at infinity$"),
        (lambda c: c["custom"]["m0_spec"]["entries"][1][1][0].update(num=[[0.0, 0.01], [0.01, 0.0]]),
         r"^m0_spec: entry \(1,1\) has no limit at infinity$"),
        (lambda c: _first_term(c).update(num=[[0.0, 0.0], [1e300, 0.0]], den=[[0.0, 1.0], [1e-300, 0.0]],
                                         phase=0.0),
         r"^m0_spec: entry \(0,0\) has no finite limit at infinity$"),
        # the shape and pole checks come first
        (lambda c: c["custom"].update(m0_spec={"entries": [[[{"num": [[1.0, 0.0]], "phase": 1.0}]]]}),
         "must describe a 2 x 2"),
        (lambda c: _first_term(c).update(num=[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], den=[[-1.0, 0.0], [1.0, 0.0]]),
         "pole on the real axis"),
    ],
)
def test_parse_custom_rejections(mutate, needle):
    data = json.loads(_custom_cfg())
    mutate(data)
    with pytest.raises(ConfigError, match=needle):
        parse_config(json.dumps(data))


def test_custom_accepts_a_constant_entry(tmp_path):
    # a constant has a limit at infinity, so 0.01 on the diagonal runs
    data = json.loads(_custom_cfg(grid_points=64, order=1, output_dir=str(tmp_path / "const")))
    _first_term(data).update(num=[[0.01, 0.0]], den=[[1.0, 0.0]], phase=0.0)
    cfg = parse_config(json.dumps(data))
    assert np.array_equal(cfg.custom.m0.limit_at_infinity(), np.diag([0.01, 0.0]))
    assert run(cfg)["residual_sup"][0] < 1e-2


def test_custom_rejects_real_pole():
    spec = {"entries": [[[{"num": [[1.0, 0.0]], "den": [[0.0, 0.0], [1.0, 0.0]]}],
                         [{"num": [[0.0, 0.0]]}]],
                        [[{"num": [[0.0, 0.0]]}],
                         [{"num": [[0.0, 0.0]]}]]]}
    data = json.loads(_custom_cfg())
    data["custom"]["m0_spec"] = spec
    with pytest.raises(ConfigError, match="pole on the real axis"):
        parse_config(json.dumps(data))


@pytest.mark.parametrize(
    "den,real_pole",
    [
        ([[1e300, 0.0], [1e-300, 0.0]], True),  # a real pole near -1e600
        ([[0.0, 1e300], [1e-300, 0.0]], False),
        ([[0.0, 1.0], [1e-320, 0.0]], False),
    ],
)
def test_extreme_denominators_parse_without_warnings(den, real_pole):
    # the pole check solves for the roots of finite but extreme denominators;
    # it keeps its verdict and lets no numpy warning out
    data = json.loads(_custom_cfg())
    _first_term(data)["den"] = den
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if real_pole:
            with pytest.raises(ConfigError, match="pole on the real axis"):
                parse_config(json.dumps(data))
        else:
            assert parse_config(json.dumps(data)).custom.m0.shape == (2, 2)


def _run_example(tmp_path, subdir="out", **over):
    cfg = parse_config(_example_cfg(phi_list=[0.5, 0.25], grid_points=256,
                                    order=2, **over))
    cfg.output_dir = str(tmp_path / subdir)
    return cfg, run(cfg)


def test_run_example_outputs(tmp_path):
    cfg, summary = _run_example(tmp_path)
    n, phis = 256, 2
    factors = (tmp_path / "out" / "factors.csv").read_text().splitlines()
    assert factors[0] == "phi,x,component,p,q,re,im"
    assert len(factors) == 1 + phis * 3 * 4 * n
    first = factors[1].split(",")
    assert first[0] == "0.5" and first[2] == "h_minus" and first[3] == "1" and first[4] == "1"
    remainders = (tmp_path / "out" / "remainders.csv").read_text().splitlines()
    assert remainders[0] == ",".join(example2x2.FIGURE_COLUMNS)
    assert len(remainders) == 1 + phis * 4 * n

    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["problem"] == "example" and diag["variant"] == 1
    assert diag["indices"] == [1, 0] and diag["shift_s"] == 0 and diag["leading_count_k"] == 1
    assert diag["order"] == 2 and diag["grid_points"] == 256
    assert len(diag["per_phi"]) == 2
    entry = diag["per_phi"][0]
    assert entry["phi"] == 0.5 and entry["order_reached"] == 2
    assert entry["residual_sup"] > 0
    assert len(entry["per_step_norms"]) == 2
    assert entry["convergence"]["A"] > 0
    assert entry["factor_conditions"]["unit_column_defect"] < 1e-8
    assert diag["alpha"][0] == 0.5 and len(diag["alpha"]) == 12
    assert diag["c_mu_empirical_lower_bound"] >= 0.99
    # residual shrinks with phi, so the ratio of successive residuals is > 1
    (ratio,) = diag["residual_ratios"]
    assert ratio > 1.0
    assert summary["residual_sup"][0] > summary["residual_sup"][1]


def test_run_outputs_are_byte_deterministic(tmp_path):
    _run_example(tmp_path, subdir="a")
    _run_example(tmp_path, subdir="b")
    for name in ("factors.csv", "remainders.csv", "diagnostics.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_float_format_round_trips():
    vals = [0.1, 1.0 / 3.0, 2.5e-17, -1.2345678901234567e9]
    for v in vals:
        assert float(cli._fmt(v)) == v


def _special_values(rng, size):
    """Random values with +-0.0, +-inf and nan mixed in."""
    v = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
    v[::7] = 0.0
    v[1::7] = -0.0
    v[2::11] = np.inf
    v[3::11] = -np.inf
    v[4::13] = np.nan
    return v


def test_csv_lines_match_per_cell_format():
    # remainders.csv-shaped blocks: constant columns, x as text, special values
    rng = np.random.default_rng(3)
    x = _special_values(rng, 50)
    x[0] = -1e300
    x_text = ["%.17g" % v for v in x.tolist()]
    near = np.full(50, 2.0)  # constant but for one value
    near[20] = -0.0
    rows, blocks = [], []
    for sign in (1.0, -1.0):
        cols = [np.full(50, 1.0), np.full(50, sign * 0.0), x, np.full(50, np.nan),
                np.full(50, -np.inf), _special_values(rng, 50), rng.standard_normal(50), near]
        rows.append(np.column_stack(cols))
        blocks.append([*cols[:2], x_text, *cols[3:]])
    want = "".join(",".join("%.17g" % v for v in row) + "\n" for row in np.vstack(rows).tolist())
    assert "".join(cli._csv_lines(blocks)) == want
    assert "-0," in want and ",0," in want  # -0.0 keeps its own text
    assert "".join(cli._csv_lines([])) == ""


def test_factor_blocks_match_per_cell_format():
    rng = np.random.default_rng(4)
    n, n_points = 2, 40
    x = np.sort(rng.standard_normal(n_points))
    x[5] = -0.0
    comps = {}
    for name in ("h_minus", "h_plus", "lambda"):
        data = _special_values(rng, (n, n, n_points)) + 1j * _special_values(rng, (n, n, n_points))
        comps[name] = data
    comps["lambda"][0, 1] = 0.0  # constant entries, as lambda's off-diagonal ones
    comps["lambda"][1, 1] = complex(1.0, -0.0)
    near = comps["h_plus"][0, 1]  # parts that are constant but for one value
    near.real, near.imag = 2.0, 0.0
    near.real[20], near.imag[17] = 3.0, -0.0
    result = SimpleNamespace(
        profile=SimpleNamespace(n=n),
        h_minus=SimpleNamespace(data=comps["h_minus"]),
        h_plus=SimpleNamespace(data=comps["h_plus"]),
        lambda_factor=SimpleNamespace(data=comps["lambda"]),
    )
    phi = 0.1
    want = []
    for name, data in comps.items():
        for p in range(n):
            for q in range(n):
                for xv, v in zip(x.tolist(), data[p, q].tolist()):
                    want.append("%.17g,%.17g,%s,%d,%d,%.17g,%.17g\n"
                                % (phi, xv, name, p + 1, q + 1, v.real, v.imag))
    x_text = cli._x_text(SimpleNamespace(x_nodes=x))
    got = "".join(cli._csv_lines(cli._factor_blocks([(phi, result, None, None)], x_text)))
    assert got == "".join(want)


def test_run_custom_problem(tmp_path):
    cfg = parse_config(_custom_cfg())
    cfg.grid_points = 256
    cfg.order = 2
    cfg.output_dir = str(tmp_path / "c")
    summary = run(cfg)
    # no example figure table for a custom problem: header only
    remainders = (tmp_path / "c" / "remainders.csv").read_text().splitlines()
    assert remainders == [",".join(example2x2.FIGURE_COLUMNS)]
    diag = json.loads((tmp_path / "c" / "diagnostics.json").read_text())
    assert diag["problem"] == "custom" and diag["variant"] is None
    assert diag["per_phi"][0]["phi"] == 0.0  # placeholder for a custom run
    assert diag["per_phi"][0]["residual_sup"] < 1e-2
    assert summary["residual_sup"][0] == diag["per_phi"][0]["residual_sup"]


def _library_run(cfg, phi, strategy):
    grid = MobiusGrid.build(cfg.grid_points)
    m0 = sample(example2x2.build_example(phi).M0, grid)
    return engine.run_factorization(engine.build_lambda0(rbvp.split_indices((1, 0)), grid), m0,
                                    rbvp.split_indices((1, 0)), cfg.order, strategy=strategy), m0


def test_diagnostics_objects_mirror_the_records(tmp_path):
    # factor_conditions and convergence carry their records' own fields:
    # floats as _json_safe gives them, bools as they are
    cfg, _ = _run_example(tmp_path)
    entry = json.loads((tmp_path / "out" / "diagnostics.json").read_text())["per_phi"][1]
    res, m0 = _library_run(cfg, 0.25, "canonical-zero")
    for key, record in (("factor_conditions", engine.check_factor_conditions(res)),
                        ("convergence", engine.convergence_constant(m0, cfg.mu, cfg.c_mu))):
        want = dataclasses.asdict(record)
        assert entry[key] == want and set(entry[key]) == set(want)
    assert entry["convergence"]["small_enough"] is False


def test_run_explicit_strategy(tmp_path, capsys):
    # whfactor run with explicit constants gives the factors of a library run
    # with ExplicitConstants; a block of the wrong shape is a config error
    blocks = [[[[0.1, -0.2], [0.0, 0.3]]], [[0.05, [0.0, -0.1]]]]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_example_cfg(phi_list=[0.5], grid_points=64, order=3, strategy="explicit",
                                     explicit_constants=blocks))
    out_dir = tmp_path / "explicit"
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    cfg = parse_config(cfg_path.read_text())
    res, _ = _library_run(cfg, 0.5, engine.ExplicitConstants(cfg.explicit_constants))
    rows = [line.split(",") for line in (out_dir / "factors.csv").read_text().splitlines()[1:]]
    got = {}
    for _, _, name, p, q, re_, im in rows:
        got.setdefault((name, int(p) - 1, int(q) - 1), []).append(complex(float(re_), float(im)))
    for name, smf in (("h_minus", res.h_minus), ("h_plus", res.h_plus), ("lambda", res.lambda_factor)):
        for p in range(2):
            for q in range(2):
                assert np.array_equal(got[name, p, q], smf.data[p, q]), (name, p, q)
    # the free row of each step's constant; the last block repeats
    free_rows = [step.constant[1].tolist() for step in res.steps]
    assert free_rows == [[0.1 - 0.2j, 0.3j], [0.05, -0.1j], [0.05, -0.1j]]

    cfg_path.write_text(_example_cfg(phi_list=[0.5], grid_points=64, strategy="explicit",
                                     explicit_constants=[blocks[0], [[0.0, 0.0, 0.0]]]))
    bad_dir = tmp_path / "wrong-shape"
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(bad_dir)]) == 2
    assert "explicit_constants[1] must be 1 x 2 for this problem, got 1 x 3" in capsys.readouterr().err
    assert not bad_dir.exists()


def test_run_removes_partial_files_when_a_write_fails(tmp_path, capsys):
    # diagnostics.json cannot be opened for writing: both CSVs, written
    # first, are removed, and the failure is a config error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_example_cfg(phi_list=[0.5], grid_points=64, order=1))
    out_dir = tmp_path / "partial"
    (out_dir / "diagnostics.json").mkdir(parents=True)
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(out_dir)]) == 2
    assert "config error" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == ["diagnostics.json"]
    assert (out_dir / "diagnostics.json").is_dir()


def test_diagnostics_grid_rule(tmp_path):
    # at N = 4096 the Hoelder norm comes from M0 sampled on 2048 nodes, and
    # the C_mu bound from a 1024-node grid
    cfg = parse_config(_custom_cfg(grid_points=4096, order=1))
    cfg.output_dir = str(tmp_path / "big")
    run(cfg)
    diag = json.loads((tmp_path / "big" / "diagnostics.json").read_text())
    want = hoelder_norm(sample(cfg.custom.m0, MobiusGrid.build(2048)), cfg.mu).total
    assert diag["per_phi"][0]["convergence"]["hoelder_norm"] == want
    assert want != hoelder_norm(sample(cfg.custom.m0, MobiusGrid.build(4096)), cfg.mu).total
    assert diag["c_mu_empirical_lower_bound"] == engine.c_mu_lower_bound(MobiusGrid.build(1024), cfg.mu)


# M0 = diag(1e200/(x+i), 1e200i/(x+i)): det(Lambda + M0) overflows at every node
_OVERFLOW_M0 = {"entries": [[[{"num": [[1e200, 0.0]], "den": [[0.0, 1.0], [1.0, 0.0]]}], []],
                            [[], [{"num": [[0.0, 1e200]], "den": [[0.0, 1.0], [1.0, 0.0]]}]]]}


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_example_cfg(grid_points=128, phi_list=[0.5]))
    out_dir = tmp_path / "m"
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert out.count("wrote ") == 3 and "residual_sup " in out
    assert (out_dir / "factors.csv").exists()

    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert "config error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["run", "--config", str(bad)]) == 2
    assert "missing required key problem" in capsys.readouterr().err

    # a non-finite number is a config error: no run, no non-strict JSON written
    for text in (_example_cfg(c_mu=float("inf")),
                 _example_cfg(strategy="explicit", explicit_constants=[[[float("inf"), 0.0]]])):
        bad.write_text(text)
        assert main(["run", "--config", str(bad), "--output-dir", str(tmp_path / "nf")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "nf").exists()

    # an override is checked as the config key it replaces, before the run
    assert main(["run", "--config", str(cfg_path), "--output-dir", ""]) == 2
    assert "output_dir must be a nonempty string" in capsys.readouterr().err

    # a failed route cross-check is a numerical failure: exit 3, no output
    for median in (1.0, float("nan")):
        monkeypatch.setattr(example2x2, "_route_gap_median", lambda *args, median=median: median)
        monkeypatch.setattr(example2x2, "_checked_phis", set())
        gate_dir = tmp_path / f"gate-{median}"
        assert main(["run", "--config", str(cfg_path), "--output-dir", str(gate_dir)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: closed-form and quadrature factor routes disagree" in err
        assert "quadrature/convention fault" in err
        assert not gate_dir.exists()

    # so is a remainder that overflows: M0 = diag(1e200/(x+i), 1e200i/(x+i))
    bad.write_text(_custom_cfg(order=3, grid_points=64,
                               custom={"indices": [1, 0], "lambda_s": 0, "m0_spec": _OVERFLOW_M0}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(bad), "--output-dir", str(tmp_path / "huge")]) == 3
    assert "numerical failure: remainder at step 2 contains non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "huge").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_reports_an_overflow_raised_as_an_error(tmp_path, capsys):
    # with RuntimeWarnings raised as errors, the overflow in det(Lambda + M0)
    # is a numerical failure too: exit 3 and no output directory
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(_custom_cfg(order=3, grid_points=64,
                                    custom={"indices": [1, 0], "lambda_s": 0, "m0_spec": _OVERFLOW_M0}))
    out_dir = tmp_path / "huge"
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(out_dir)]) == 3
    assert "numerical failure: overflow" in capsys.readouterr().err
    assert not out_dir.exists()


def test_main_order_and_grid_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_example_cfg(grid_points=128))
    out_dir = tmp_path / "o"
    rc = main(["run", "--config", str(cfg_path), "--output-dir", str(out_dir),
               "--order", "1", "--grid-points", "64"])
    assert rc == 0
    diag = json.loads((out_dir / "diagnostics.json").read_text())
    assert diag["order"] == 1 and diag["grid_points"] == 64
    assert main(["run", "--config", str(cfg_path), "--order", "0"]) == 2


def test_main_figures_subcommand(tmp_path, capsys):
    rc = main(["figures", "--variant", "2", "--phi", "0.5,0.25",
               "--grid-points", "64", "--output-dir", str(tmp_path / "f")])
    assert rc == 0
    assert "wrote " in capsys.readouterr().out
    lines = (tmp_path / "f" / "remainders.csv").read_text().splitlines()
    assert lines[0] == ",".join(example2x2.FIGURE_COLUMNS)
    assert len(lines) == 1 + 2 * 4 * 64
    assert main(["figures", "--variant", "2", "--phi", "-1",
                 "--output-dir", str(tmp_path / "g")]) == 2
    capsys.readouterr()
    for phi in ("inf", "1e999"):  # rejected before the route cross-check
        assert main(["figures", "--variant", "2", "--phi", phi,
                     "--output-dir", str(tmp_path / "g")]) == 2
        assert "phi must be finite, got inf" in capsys.readouterr().err


def test_figures_fails_on_a_failed_route_check(tmp_path, capsys, monkeypatch):
    # figures gates each phi as run does: a failed gate exits 3 and writes no file
    monkeypatch.setattr(example2x2, "_route_gap_median", lambda *args: 1.0)
    monkeypatch.setattr(example2x2, "_checked_phis", set())
    out_dir = tmp_path / "f"
    assert main(["figures", "--variant", "2", "--phi", "0.5", "--grid-points", "64",
                 "--output-dir", str(out_dir)]) == 3
    assert "numerical failure: closed-form and quadrature factor routes disagree" in capsys.readouterr().err
    assert not out_dir.exists()


def test_figures_and_run_write_the_same_remainders(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_example_cfg(variant=2, phi_list=[0.5, 0.25], grid_points=64, order=1))
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "r")]) == 0
    assert main(["figures", "--variant", "2", "--phi", "0.5", "0.25", "--grid-points", "64",
                 "--output-dir", str(tmp_path / "f")]) == 0
    remainders = [(tmp_path / d / "remainders.csv").read_bytes() for d in ("r", "f")]
    assert remainders[0] == remainders[1]
    assert remainders[0].count(b"\n") == 1 + 2 * 4 * 64


def _readme_config(marker):
    """The JSON config after `marker` in README.md, cut out as the CI step does."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    _, _, tail = readme.partition(marker)
    return tail.split("```json", 1)[1].split("```", 1)[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("marker", ["Config for the built-in example family:",
                                    "Config for a custom problem:"], ids=["example", "custom"])
def test_readme_configs_run(tmp_path, marker):
    cfg = parse_config(_readme_config(marker))
    cfg.grid_points = 128
    cfg.output_dir = str(tmp_path / "out")
    summary = run(cfg)
    assert all(0 < r < 1 for r in summary["residual_sup"])
    for name in ("factors.csv", "remainders.csv", "diagnostics.json"):
        assert (tmp_path / "out" / name).stat().st_size > 0


def test_main_alphas_subcommand(capsys):
    assert main(["alphas", "--max", "4"]) == 0
    out = capsys.readouterr().out
    assert "1/2" in out and "5/128" in out
    assert main(["alphas", "--max", "0"]) == 2


def _custom3_m0_spec(diagonal=0.03, off=0.018):
    # 3 x 3 entries a e^(i w x) / (x -+ i b): small, decaying, oscillatory;
    # |a| is diagonal on the diagonal and off elsewhere
    rows = []
    for p in range(3):
        row = []
        for q in range(3):
            k = 3 * p + q
            b = 0.8 + 0.15 * k
            pole = b if k % 2 == 0 else -b
            amp = diagonal if p == q else off
            angle = 2 * np.pi * k / 9
            row.append([{"num": [[amp * np.cos(angle), amp * np.sin(angle)]],
                         "den": [[0.0, pole], [1.0, 0.0]], "phase": -1.0 + 0.25 * k}])
        rows.append(row)
    return {"entries": rows}


_GOLDEN_CONFIGS = {
    "custom3": {
        "problem": "custom",
        "custom": {"indices": [2, 2, 1], "lambda_s": 1, "m0_spec": _custom3_m0_spec()},
        "strategy": "minimize-remainder-infinity", "order": 3, "grid_points": 256,
    },
    "example": {"problem": "example", "variant": 1, "phi_list": [0.2], "order": 2,
                "grid_points": 256},
}

# sha256 of each output file; any change to the bytes of a run shows here.
# Recorded once node-wise products, determinants and node sums were built
# from numpy ufuncs instead of BLAS/LAPACK calls, so they hold on every BLAS
# build of a given numpy (test_run_outputs_do_not_depend_on_the_blas_kernel).
# Re-recorded once for node-last storage: node-axis sums (node_sum, the mode
# sums, zeroth_mode) now run along a contiguous axis, which numpy adds
# pairwise instead of in sequence. Re-recorded once when the minus part of
# each step came to be taken from the inversion identity M - (plus - E)
# instead of a second inverse FFT, and h-(inf) came to sum the steps'
# minus_at_infinity(): the factors and diagnostics moved in their last bits.
# numpy's own SIMD dispatch can still move the last bits: its AVX2/FMA3 loops
# for complex products, abs and exp round differently from its baseline ones.
_GOLDEN_DIGESTS = {
    "custom3": {
        "factors.csv": "1a72fa25cd523b0fd597d38e162327456397dc9242906f7fc5575c93f0a57749",
        "remainders.csv": "323a9116ee6e2b98e48988f88e4640a156faf3d383286f0ed7803966b5ab54ff",
        "diagnostics.json": "f88d002975ac6425129751dfd83534851a87fd3df372a3124484f808283fcd45",
    },
    "example": {
        "factors.csv": "55ec60e168edb15b7c2d6cf1448bfe0f3a7b4b0720f97184ce535208cbc93129",
        "remainders.csv": "fe7e35708ba25583bf1190ad132d31d851daadafab11e974aa9ba19796d1d6e7",
        "diagnostics.json": "b433af0eb424874b43e969ed98cdc44b45c2f731d1157a1a78221a6d20715ae2",
    },
}


def test_run_rejects_indices_the_winding_contradicts(tmp_path, capsys):
    # custom3 at amplitude 1 has total index 4, not the declared 5: det(Lambda + M0)
    # winds 4 times on 2048 nodes, with a largest phase step of 0.22 rad, so
    # the count is resolved. The run stops before solving and writes nothing.
    config = dict(_GOLDEN_CONFIGS["custom3"], grid_points=2048, custom={
        "indices": [2, 2, 1], "lambda_s": 1, "m0_spec": _custom3_m0_spec(1.0, 0.6)})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    cfg = parse_config(cfg_path.read_text())
    cfg.output_dir = str(out_dir)
    with pytest.raises(ConfigError, match=r"total index 5, but det\(Lambda \+ M0\) winds 4 times"):
        run(cfg)
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(out_dir)]) == 2
    assert "winds 4 times around 0 on 2048 nodes" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_accepts_indices_the_winding_confirms(tmp_path):
    # the README custom problem winds once on 2048 nodes, as indices (1, 0)
    # declare (largest phase step 0.008 rad); custom3 at the golden
    # amplitude winds 5 times, as (2, 2, 1) declare
    for text in (_readme_config("Config for a custom problem:"),
                 json.dumps(dict(_GOLDEN_CONFIGS["custom3"], grid_points=2048, order=1))):
        cfg = parse_config(text)
        cfg.output_dir = str(tmp_path / "ok")
        assert run(cfg)["residual_sup"][0] < 1e-2


def test_run_leaves_an_unresolved_winding_unjudged(tmp_path):
    # 2i e^(30ix) / (x + i) on the diagonal turns its phase by up to pi
    # between neighbours on 64 nodes; that count (-5 against the declared 1)
    # is not resolved, so it raises nothing
    entry = [{"num": [[0.0, 2.0]], "den": [[0.0, 1.0], [1.0, 0.0]], "phase": 30.0}]
    config = {"problem": "custom", "grid_points": 64, "order": 1, "output_dir": str(tmp_path / "u"),
              "custom": {"indices": [1, 0], "lambda_s": 0,
                         "m0_spec": {"entries": [[entry, []], [[], entry]]}}}
    cfg = parse_config(json.dumps(config))
    grid = MobiusGrid.build(64)
    count, largest, reliable = winding(node_det((engine.build_lambda0(rbvp.split_indices((1, 0)), grid)
                                                 + sample(cfg.custom.m0, grid)).samples))
    assert count != 1 and largest >= np.pi / 2 and reliable is False
    run(cfg)
    assert (tmp_path / "u" / "diagnostics.json").exists()


def test_total_index_check_leaves_a_non_finite_determinant_unjudged(monkeypatch):
    # an infinite determinant at every node has phase 0 throughout, a count
    # of 0 against the declared 1; it says nothing about the indices
    grid = MobiusGrid.build(64)
    profile = rbvp.split_indices((1, 0))
    m0 = sample(parse_config(_custom_cfg()).custom.m0, grid)
    monkeypatch.setattr(engine, "node_det", lambda a: np.full(len(a), complex(np.inf, 0.0)))
    engine.check_total_index(engine.build_lambda0(profile, grid), m0, profile)


def test_run_checks_the_total_index_of_every_problem(tmp_path, capsys, monkeypatch):
    # the example runs the check once per phi, as a custom problem does once;
    # a ValueError from it is a config error: exit 2 and no file written
    seen = []

    def counted(lambda0, m0, profile):
        seen.append(m0.grid.n_points)
        engine.check_total_index(lambda0, m0, profile)
    monkeypatch.setattr(cli, "check_total_index", counted)
    _run_example(tmp_path)
    assert seen == [256, 256]

    def refused(lambda0, m0, profile):
        raise ValueError("declared total index refused")
    monkeypatch.setattr(cli, "check_total_index", refused)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_example_cfg(phi_list=[0.5, 0.25], grid_points=256))
    out_dir = tmp_path / "refused"
    cfg = parse_config(cfg_path.read_text())
    cfg.output_dir = str(out_dir)
    with pytest.raises(ConfigError, match="declared total index refused"):
        run(cfg)
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(out_dir)]) == 2
    assert "config error: declared total index refused" in capsys.readouterr().err
    assert not out_dir.exists()


def _digests(out_dir):
    return {
        f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
        for f in ("factors.csv", "remainders.csv", "diagnostics.json")
    }


@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIGS))
def test_run_outputs_match_golden_digests(tmp_path, name):
    cfg = parse_config(json.dumps(_GOLDEN_CONFIGS[name]))
    cfg.output_dir = str(tmp_path / name)
    run(cfg)
    assert _digests(tmp_path / name) == _GOLDEN_DIGESTS[name]


def test_run_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE makes a DYNAMIC_ARCH OpenBLAS use the kernels of an
    # older CPU (other BLAS builds ignore it); the output bytes must not move
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    for name, config in sorted(_GOLDEN_CONFIGS.items()):
        cfg_file = tmp_path / f"{name}.json"
        cfg_file.write_text(json.dumps(config))
        sub = subprocess.run(
            [sys.executable, "-m", "whfactor.cli", "run", "--config", str(cfg_file),
             "--output-dir", str(tmp_path / "prescott" / name)],
            env=env, capture_output=True, text=True,
        )
        assert sub.returncode == 0, sub.stderr
        cfg = parse_config(json.dumps(config))
        cfg.output_dir = str(tmp_path / "here" / name)
        run(cfg)
        assert _digests(tmp_path / "prescott" / name) == _digests(tmp_path / "here" / name), name
