"""Config loading, structure validation, and diagnostics tests."""

import copy
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hcppnet import ConfigurationError
from hcppnet.cli import main
from hcppnet.config import DEFAULTS, config_from_dict, load_config, validate_config
from hcppnet.figures import FIGURES


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


def test_validate_reports_a_decreasing_sweep_with_every_other_problem():
    diags = validate_config({"sweep": {"axis": "s", "values": [4, 2, 1]}, "channel": {"alpha": 1.0}})
    assert diags == [
        "config structure invalid at channel/alpha: must be > 2, got 1.0",
        "config structure invalid at sweep/values: must be strictly increasing, got [4, 2, 1]",
    ]


def test_sweep_axis_must_be_one_some_figure_sweeps():
    (diag,) = validate_config({"sweep": {"axis": "bogus", "values": [1, 2]}})
    assert diag.startswith("config structure invalid at sweep/axis:") and "'bogus'" in diag
    for spec in FIGURES.values():
        assert validate_config({"sweep": {"axis": spec.axis, "values": [1, 2]}}) == []


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


def _valid(default):
    """Valid values for a number key with this default: a little above it, or the same number as the other type."""
    if isinstance(default, int):
        return st.integers(default, default + 3) | st.just(float(default))
    same = st.just(int(default)) if default.is_integer() else st.nothing()
    return st.floats(*sorted((default, 1.1 * default))) | same


def _section(name):
    numbers = {key: _valid(value) for key, value in DEFAULTS[name].items() if isinstance(value, (int, float))}
    numbers.pop("n_link", None)  # the link counts are drawn together, as one valid choice
    return st.fixed_dictionaries({}, optional=numbers)


_LINKS = st.sampled_from(
    [{}, {"n_link": 12}, {"n_link": 12.0, "lambda_m": None}, {"lambda_m": 1e-5}, {"lambda_m": 2, "n_link": None}]
)
_partial_configs = st.fixed_dictionaries(
    {},
    optional={
        "seed": _valid(DEFAULTS["seed"]),
        **{
            name: _section(name)
            for name in ("point_process", "channel", "interference", "antennas", "traffic", "mc")
        },
        "energy": st.tuples(_section("energy"), _LINKS).map(lambda parts: {**parts[0], **parts[1]}),
        "sweep": st.none() | st.fixed_dictionaries({
            "axis": st.sampled_from(sorted({spec.axis for spec in FIGURES.values()})),
            "values": st.sets(st.sampled_from([1, 2.0, 4, 8.5, 16]), min_size=1).map(sorted),
        }),
        "output": st.fixed_dictionaries({}, optional={"path": st.none() | st.just("out.csv")}),
    },
)


def _clear(node):
    for item in node.values() if isinstance(node, dict) else node:
        if isinstance(item, (dict, list)):
            _clear(item)
    node.clear()


@given(_partial_configs)
def test_resolving_is_idempotent_and_leaves_the_user_mapping_alone(user):
    before = copy.deepcopy(user)
    cfg = config_from_dict(user)
    assert config_from_dict(cfg.raw) == cfg
    assert user == before
    _clear(cfg.raw)  # cfg.raw shares no mapping or list with the user's
    assert user == before


def test_validate_config_reports_structural_errors_as_text():
    diags = validate_config({"traffic": {"theta": 0.5}})
    assert len(diags) == 1 and "theta" in diags[0]


def test_validate_config_reports_every_structural_error():
    diags = validate_config({"traffic": {"theta": "x"}, "channel": {"alpha": "y"}, "bogus": 1})
    assert len(diags) == 3
    assert "bogus" in diags[0]  # path order: root, channel/alpha, traffic/theta
    assert "channel/alpha" in diags[1]
    assert "traffic/theta" in diags[2]
