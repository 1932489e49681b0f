"""Config loading, structure validation, and diagnostics tests."""

import copy
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hcppnet import ConfigurationError
from hcppnet.cli import main
from hcppnet.config import DEFAULTS, _deep_merge, config_from_dict, load_config, validate_config


def test_defaults_load_and_are_consistent():
    cfg = config_from_dict({})
    assert cfg.hcpp.delta == 500.0
    assert cfg.hcpp.lambda_p == pytest.approx(1.0 / (math.pi * 800.0**2))
    assert cfg.channel.alpha == 3.8
    assert cfg.antennas.n_t == 8
    assert cfg.traffic.rho_min == pytest.approx(2 * cfg.traffic.b_w)
    assert cfg.energy.n_link == 30
    assert cfg.ee_x_off == 188.0
    assert cfg.ee_x_off < cfg.hcpp.delta


def test_partial_override_merges_with_defaults():
    cfg = config_from_dict({"channel": {"alpha": 4.2}})
    assert cfg.channel.alpha == 4.2
    assert cfg.hcpp.delta == 500.0  # untouched sections keep defaults


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError, match="(?i)additional"):
        config_from_dict({"chanel": {"alpha": 4.0}})


def test_out_of_range_values_rejected():
    with pytest.raises(ConfigurationError):
        config_from_dict({"channel": {"alpha": 1.5}})
    with pytest.raises(ConfigurationError):
        config_from_dict({"traffic": {"theta": 2.5}})
    with pytest.raises(ConfigurationError):
        config_from_dict({"energy": {"eta": 0.0}})


def test_validate_config_reports_every_range_problem_in_a_section():
    diags = validate_config({"energy": {"eta": 0.0, "p_sta": -1.0}})
    assert len(diags) == 2, diags
    assert "energy/eta" in diags[0] and "energy/p_sta" in diags[1]


@pytest.mark.parametrize(
    "user",
    [
        {"interference": {"realizations": 0}},
        {"antennas": {"n_t": 0}},
        {"sweep": {"axis": "s", "values": []}},
        {"mc": {"se_draws": 0}},
        {"mc": {"ee_draws": 0}},
        {"channel": {"alpha": math.nan}},
        {"point_process": {"lambda_p": math.inf}},
        {"sweep": {"axis": "x_off", "values": [math.nan]}},
        {"antennas": {"n_t": 8.5}},
        {"channel": {"alpha": True}},
    ],
)
def test_schema_rejects_empty_counts_and_sweeps(user):
    with pytest.raises(ConfigurationError, match="config structure invalid"):
        config_from_dict(user)


def test_link_count_override_retires_the_other_source():
    cfg = config_from_dict({"energy": {"lambda_m": 1e-5}})
    assert cfg.energy.lambda_m == 1e-5
    assert cfg.energy.n_link is None  # the default count must step aside


def test_explicit_double_link_spec_rejected():
    with pytest.raises(ConfigurationError):
        config_from_dict({"energy": {"lambda_m": 1e-5, "n_link": 20}})


def test_sweep_must_be_increasing():
    with pytest.raises(ConfigurationError):
        config_from_dict({"sweep": {"axis": "s", "values": [4, 2, 1]}})


def test_load_config_yaml_roundtrip(tmp_path):
    p = tmp_path / "conf.yaml"
    p.write_text("channel:\n  alpha: 4.0\nseed: 9\n")
    cfg = load_config(str(p))
    assert cfg.channel.alpha == 4.0
    assert cfg.seed == 9


def test_load_config_missing_file():
    with pytest.raises(ConfigurationError):
        load_config("/nonexistent/conf.yaml")


def test_validate_config_clean_defaults():
    assert validate_config(None) == []


def test_validate_config_flags_divergent_offsets():
    diags = validate_config({"interference": {"x_off": 600.0}})
    assert any("x_off" in d for d in diags)
    diags = validate_config({"energy": {"x_off": 500.0}})
    assert any("energy.x_off" in d for d in diags)


def test_window_side_is_rejected_by_every_entry_point(capsys, tmp_path):
    # the Monte Carlo window is derived, so a leftover window_side key is a
    # config error for validate and for each command that runs the estimator
    p = tmp_path / "window.yaml"
    p.write_text("interference:\n  window_side: 6500\n")
    out = str(tmp_path / "fig.csv")
    for argv in (
        ["validate", "--config", str(p)],
        ["interference", "--mc", "--reps", "2", "--config", str(p)],
        ["figure", "2", "--reps", "1", "--workers", "1", "--out", out, "--config", str(p)],
    ):
        assert main(argv) == 3, argv
        assert "window_side" in capsys.readouterr().err, argv


_LEAF_PATHS = [name for name, default in DEFAULTS.items() if not isinstance(default, dict)] + [
    f"{name}/{key}" for name, default in DEFAULTS.items() if isinstance(default, dict) for key in default
]


def _user_setting(path, value):
    *sections, key = path.split("/")
    return {sections[0]: {key: value}} if sections else {key: value}


@pytest.mark.parametrize("path", _LEAF_PATHS)
def test_every_default_leaf_is_type_checked_and_accepts_its_default(path):
    # a string is a valid output path, so that leaf gets a number instead
    wrong = 1 if path == "output/path" else "x"
    diags = validate_config(_user_setting(path, wrong))
    assert len(diags) == 1 and f" {path}:" in diags[0], diags
    default = DEFAULTS
    for part in path.split("/"):
        default = default[part]
    assert validate_config(_user_setting(path, default)) == []


_leaves = st.none() | st.integers(0, 3)
_mappings = st.recursive(
    st.dictionaries(st.sampled_from("abc"), _leaves, max_size=3),
    lambda inner: st.dictionaries(st.sampled_from("abc"), _leaves | inner, max_size=3),
    max_leaves=8,
)


@given(_mappings, _mappings)
def test_deep_merge_is_idempotent_and_leaves_inputs_alone(a, b):
    a_before, b_before = copy.deepcopy(a), copy.deepcopy(b)
    once = _deep_merge(a, b)
    assert _deep_merge(once, b) == once
    assert a == a_before and b == b_before


def test_validate_config_reports_structural_errors_as_text():
    diags = validate_config({"traffic": {"theta": 0.5}})
    assert len(diags) == 1 and "theta" in diags[0]


def test_validate_config_reports_every_structural_error():
    diags = validate_config({"traffic": {"theta": "x"}, "channel": {"alpha": "y"}, "bogus": 1})
    assert len(diags) == 3
    assert "bogus" in diags[0]  # path order: root, channel/alpha, traffic/theta
    assert "channel/alpha" in diags[1]
    assert "traffic/theta" in diags[2]
