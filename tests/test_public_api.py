"""The package namespace: the README's API example runs, and __all__ is what the docs use.

`whfactor.__all__` holds the names that the README, the demos and the
benchmark import from `whfactor`, the exception classes of the library
modules, and `Step`; everything else is reached through its module.
"""

import ast
import importlib
import pathlib
import re

import numpy as np

import whfactor

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def _package_names(tree):
    """Names imported from `whfactor`, or read off a name it is imported as."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "whfactor":
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name == "whfactor" and a.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and not node.attr.startswith("__")):
            names.add(node.attr)
    return names


def _documented_names():
    sources = _python_blocks(README)
    for folder in ("demos", "bench"):
        sources += [p.read_text(encoding="utf-8") for p in sorted((ROOT / folder).glob("*.py"))]
    names = set()
    for src in sources:
        names |= _package_names(ast.parse(src))
    return names


def _exception_classes():
    # the library modules; the CLI's ConfigError stays in whfactor.cli,
    # which the package does not import
    names = set()
    for mod_name in ("cauchy", "engine", "evaluators", "example2x2", "grid", "rbvp"):
        mod = importlib.import_module(f"whfactor.{mod_name}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == mod.__name__ and not name.startswith("_")):
                names.add(name)
    return names


def test_readme_minimal_api_example_runs(capsys):
    _, _, tail = README.partition("Minimal API example:")
    assert tail, "README lost its minimal API example"
    block = _python_blocks(tail)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert 0 < float(lines[0]) < 0.1  # residual_sup at phi = 0.1, order 2
    assert "nan" not in "".join(lines)


def test_all_is_the_documented_surface():
    documented = _documented_names()
    assert {"MobiusGrid", "run_factorization", "solve_scalar_index1", "check_factor_conditions"} <= documented
    want = documented | _exception_classes() | {"Step"}
    assert sorted(whfactor.__all__) == sorted(want)
    assert len(whfactor.__all__) == len(set(whfactor.__all__))
    for name in whfactor.__all__:
        assert getattr(whfactor, name) is not None, name
    # the names taken out of the namespace stay reachable from their modules
    assert callable(whfactor.engine.next_remainder) and callable(whfactor.cauchy.singular_S0)
    assert np.array_equal(whfactor.rbvp.split_indices((1, 0)).shifted_kappas(), [1, 0])
