"""Config parsing, run outputs, determinism, exit codes."""

import hashlib
import json

import numpy as np
import pytest

from whfactor import cli, example2x2
from whfactor.cli import ConfigError, RunConfig, main, parse_config, run


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
    ],
)
def test_parse_config_rejections(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(text)


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
    ],
)
def test_parse_custom_rejections(mutate, needle):
    data = json.loads(_custom_cfg())
    mutate(data)
    with pytest.raises(ConfigError, match=needle):
        parse_config(json.dumps(data))


def test_custom_rejects_real_pole():
    spec = {"entries": [[[{"num": [[1.0, 0.0]], "den": [[0.0, 0.0], [1.0, 0.0]]}],
                         [{"num": [[0.0, 0.0]]}]],
                        [[{"num": [[0.0, 0.0]]}],
                         [{"num": [[0.0, 0.0]]}]]]}
    data = json.loads(_custom_cfg())
    data["custom"]["m0_spec"] = spec
    with pytest.raises(ConfigError, match="pole on the real axis"):
        parse_config(json.dumps(data))


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


def test_main_exit_codes(tmp_path, capsys):
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


def test_main_alphas_subcommand(capsys):
    assert main(["alphas", "--max", "4"]) == 0
    out = capsys.readouterr().out
    assert "1/2" in out and "5/128" in out
    assert main(["alphas", "--max", "0"]) == 2


def _custom3_m0_spec():
    # 3 x 3 entries a e^(i w x) / (x -+ i b): small, decaying, oscillatory
    rows = []
    for p in range(3):
        row = []
        for q in range(3):
            k = 3 * p + q
            b = 0.8 + 0.15 * k
            pole = b if k % 2 == 0 else -b
            amp = 0.03 if p == q else 0.018
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

# sha256 of each output file, recorded before the Hoelder scan and the CSV
# writer were rewritten; any change to the bytes of a run shows here.
_GOLDEN_DIGESTS = {
    "custom3": {
        "factors.csv": "fb5b17495102715ad1b9658f1e2dfc88197d30dd45aafd74328b8f8d3fe07ac5",
        "remainders.csv": "323a9116ee6e2b98e48988f88e4640a156faf3d383286f0ed7803966b5ab54ff",
        "diagnostics.json": "5c4291f2997cec0e127d2a4e90a3cdf329cefb59057ce33dcbf26625aa6882cf",
    },
    "example": {
        "factors.csv": "11ffcc8fc5284f6187c30ca20172cf47cfb1566ad2946ec0d1dd2ae4bf711ca1",
        "remainders.csv": "d96dbc33eb5a5e63fc1ba218b3e30b02aa08612c4854bedb81b8be1e4e41f072",
        "diagnostics.json": "436cacea94171f64bce20b8d542b7b424b7fc0556073b1d7f5a9d6ae5a4289a3",
    },
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIGS))
def test_run_outputs_match_golden_digests(tmp_path, name):
    cfg = parse_config(json.dumps(_GOLDEN_CONFIGS[name]))
    cfg.output_dir = str(tmp_path / name)
    run(cfg)
    got = {
        f: hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest()
        for f in ("factors.csv", "remainders.csv", "diagnostics.json")
    }
    assert got == _GOLDEN_DIGESTS[name]
