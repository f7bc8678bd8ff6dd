"""Fuzzed config text: parse_config raises only ConfigError, and every
config it accepts is one a run can start from."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperns.config import _KEY_TYPES, ConfigError, parse_config

VALID = dict(nu="1e-2", eps="1e-3", symbol="power", alpha="1.25", n="8",
             dim="2", dt="1e-3", t_end="1e-2", ic="random")
FLOAT_KEYS = sorted(k for k, t in _KEY_TYPES.items() if t is float)
JUNK = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "", "1e400", "1e-400",
                     "power", "random", "taylor-green-3d", "snapshot:x"]),
    st.text(alphabet="0123456789.-+eEinfa_:=# ", max_size=6),
    st.floats().map(repr),
    st.integers(-3, 10).map(str))


@st.composite
def config_text(draw):
    values = dict(VALID)
    for key in draw(st.lists(st.sampled_from(sorted(_KEY_TYPES)),
                             max_size=4)):
        values[key] = draw(JUNK)
    if draw(st.booleans()):
        values.pop(draw(st.sampled_from(sorted(values))))
    return "".join(f"{key} = {val}\n" for key, val in values.items())


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(config_text())
def test_parse_config_raises_only_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    for key in FLOAT_KEYS:
        val = getattr(cfg, key)
        # an unset alpha is NaN, and only a power symbol needs one
        assert math.isfinite(val) or (key == "alpha" and math.isnan(val)
                                      and cfg.symbol != "power")
    assert cfg.seed >= 0 and cfg.k_c > 0 and cfg.amplitude > 0
    steps = cfg.t_end / cfg.dt
    assert math.isfinite(steps) and round(steps) >= 1
