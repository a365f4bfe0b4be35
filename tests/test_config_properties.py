"""Property tests of config parsing.

parse_config fails with ConfigError and nothing else. The documents are
generated, never run: well-formed example and custom configs (with m0_spec
trees), the same configs with one value replaced or removed, and their JSON
text with one character cut or inserted. Numbers include nan, +-inf and
integers beyond the float range.

ClosedForm.from_dict(cf.to_dict()) gives back cf's terms.
"""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from whfactor.cli import ConfigError, parse_config  # noqa: E402
from whfactor.evaluators import ClosedForm, Term  # noqa: E402

# mostly plain numbers; one in 10 may be nan, +-inf or an integer beyond the float range
WILD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)]) | st.floats()
NUMBERS = st.integers(0, 9).flatmap(
    lambda k: WILD_NUMBERS if k == 0 else st.floats(-1e3, 1e3) | st.integers(-1000, 1000)
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | WILD_NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
TERMS = st.fixed_dictionaries(
    {"num": st.lists(PAIRS, min_size=1, max_size=3)},
    optional={"den": st.lists(PAIRS, min_size=1, max_size=3), "phase": NUMBERS},
)
OPTIONAL_KEYS = {
    "order": st.integers(1, 8),
    "grid_points": st.integers(64, 1 << 13),
    "refine_check": st.integers(1, 3),
    "mu": st.floats(0.01, 0.99),
    "c_mu": st.floats(0.5, 4.0),
    "output_dir": st.text(min_size=1, max_size=6),
}
BLOCKS = st.lists(st.lists(st.lists(NUMBERS | PAIRS, min_size=1, max_size=3), min_size=1, max_size=2),
                  min_size=1, max_size=2)


@st.composite
def configs(draw):
    """A config that parses unless a number in it is out of range or non-finite."""
    data = {"problem": draw(st.sampled_from(["example", "custom"]))}
    if data["problem"] == "example":
        data["variant"] = draw(st.integers(0, 3))
        data["phi_list"] = draw(st.lists(NUMBERS, min_size=1, max_size=3))
    else:
        n = draw(st.integers(1, 3))
        top = draw(st.integers(-2, 2))
        indices = sorted(draw(st.lists(st.integers(top, top + 1), min_size=n, max_size=n)), reverse=True)
        cells = st.lists(TERMS, max_size=2)
        data["custom"] = {
            "indices": indices,
            "lambda_s": indices[-1],
            "m0_spec": {"entries": draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                                                 min_size=n, max_size=n))},
        }
    for key, values in OPTIONAL_KEYS.items():
        if draw(st.booleans()):
            data[key] = draw(values)
    strategy = draw(st.sampled_from([None, "canonical-zero", "minimize-remainder-infinity", "explicit"]))
    if strategy is not None:
        data["strategy"] = strategy
    if strategy == "explicit":
        data["explicit_constants"] = draw(BLOCKS)
    return data


def _slots(node):
    """Every (container, key) pair in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def mutated(draw):
    """A config with one value replaced or removed."""
    data = draw(configs())
    container, key = draw(st.sampled_from(list(_slots(data))))
    if draw(st.booleans()):
        container[key] = draw(JSON_VALUES)
    else:
        del container[key]
    return json.dumps(data)


@st.composite
def mangled(draw):
    """The JSON text of a config with one character cut or inserted."""
    text = json.dumps(draw(configs()))
    at = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:at] + text[at + 1:]
    return text[:at] + draw(st.sampled_from('{}[]",:0-eE.xN')) + text[at:]


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs().map(json.dumps) | mutated() | mangled() | JSON_VALUES.map(json.dumps))
def test_parse_config_raises_only_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


COEFFICIENTS = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
TERM_OBJECTS = st.builds(
    Term,
    st.lists(COEFFICIENTS, min_size=1, max_size=3).map(tuple),
    st.lists(COEFFICIENTS, min_size=1, max_size=3).map(tuple).filter(lambda d: any(d)),
    st.floats(-10.0, 10.0),
)


@st.composite
def closed_forms(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = st.lists(TERM_OBJECTS, max_size=3)
    return ClosedForm([[draw(cells) for _ in range(m)] for _ in range(n)])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(closed_forms())
def test_closed_form_dict_round_trip(cf):
    back = ClosedForm.from_dict(json.loads(json.dumps(cf.to_dict())))
    assert back.shape == cf.shape
    assert back.entries == cf.entries
