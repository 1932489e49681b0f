"""Command-line interface tests: exit codes, determinism, output shape."""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hcppnet
from hcppnet import cli, config
from hcppnet.cli import _build_parser, _load, main
from hcppnet.config import DEFAULTS
from hcppnet.interference import _SPAWN_CHUNK


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _override_actions():
    """(command, flag, config key, action) for every override flag of every subcommand."""
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (name, action.option_strings[0], action.dest[1:], action)
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.dest.startswith("/")
    ]


def test_override_flags_are_declared_on_the_expected_commands():
    declared = {(name, flag): key for name, flag, key, _ in _override_actions()}
    assert declared == {
        **{(name, "--seed"): "seed" for name in ("figure", "interference", "se", "ee")},
        ("interference", "--x-off"): "interference/x_off",
        ("ee", "--x-off"): "energy/x_off",
        **{(name, "--delta"): "point_process/delta" for name in ("interference", "ee")},
        **{(name, "--alpha"): "channel/alpha" for name in ("interference", "ee")},
        ("interference", "--lambda-p"): "point_process/lambda_p",
        **{(name, "--n-t"): "antennas/n_t" for name in ("se", "ee")},
        **{(name, "--s"): "antennas/s" for name in ("se", "ee")},
        ("ee", "--theta"): "traffic/theta",
        ("interference", "--reps"): "interference/realizations",
        ("se", "--draws"): "mc/se_draws",
        ("ee", "--draws"): "mc/ee_draws",
    }


@pytest.mark.parametrize(
    "command, flag, key, action", [pytest.param(*row, id=f"{row[0]} {row[1]}") for row in _override_actions()]
)
def test_each_override_flag_reaches_the_config_key_it_names(command, flag, key, action):
    default = DEFAULTS
    for part in key.split("/"):
        assert isinstance(default, dict) and part in default, f"{flag} names no DEFAULTS key {key}"
        default = default[part]
    assert isinstance(default, (int, float)) and not isinstance(default, bool), key
    # a valid value other than the default: one more for counts, 10% less for the rest
    value = default + 1 if action.type is int else default * 0.9
    args = _build_parser().parse_args([command, *(["6"] if command == "figure" else []), flag, str(value)])
    node = _load(args).raw
    for part in key.split("/"):
        node = node[part]
    assert node == value != default
    assert action.metavar == flag[2:].upper().replace("-", "_") and action.help.endswith(f"sets {key}")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_the_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_usage_error_exits_2_after_a_successful_run(capsys):
    # the shared parser keeps no state from a run that parsed: no error is lost, no value carried over
    code, default_out, _ = run_cli(["interference"], capsys)
    assert code == 0
    code, out, _ = run_cli(["interference", "--x-off", "250"], capsys)
    assert code == 0 and out != default_out
    with pytest.raises(SystemExit) as exc:
        main(["interference", "--x-off"])
    assert exc.value.code == 2
    assert run_cli(["interference"], capsys)[:2] == (0, default_out)


def test_interference_analytic_json(capsys):
    code, out, _ = run_cli(["interference", "--x-off", "300"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "hcpp"
    assert payload["analytic_w"] == pytest.approx(1.6100152016359728e-13, rel=1e-8, abs=0.0)


def test_interference_divergent_point_exits_4(capsys):
    code, _, err = run_cli(["interference", "--x-off", "600"], capsys)
    assert code == 4
    assert "diverge" in err.lower() or "x_off" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [["--model", "ppp", "--x-off", "1e-200"], ["--x-off", "499.999999999", "--alpha", "60"]],
)
def test_interference_mean_past_the_double_range_exits_4(argv, capsys):
    code, out, err = run_cli(["interference", *argv], capsys)
    assert code == 4 and not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "overflows double precision" in lines[0], err


def test_interference_non_finite_override_exits_3(capsys):
    for flag, key in (("--alpha", "channel/alpha"), ("--x-off", "interference/x_off")):
        code, _, err = run_cli(["interference", flag, "nan"], capsys)
        assert code == 3, flag
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0], err


def test_interference_bad_config_value_exits_3(capsys, tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("traffic:\n  theta: 9\n")
    code, _, err = run_cli(["interference", "--config", str(p)], capsys)
    assert code == 3
    assert "theta" in err


def test_interference_reps_without_mc_is_a_usage_error(capsys):
    code, out, err = run_cli(["interference", "--reps", "5"], capsys)
    assert code == 2 and not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--mc" in lines[0], err


def test_interference_mc_estimate(capsys):
    code, out, _ = run_cli(
        ["interference", "--x-off", "300", "--mc", "--reps", "120", "--seed", "4"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["replications"] == 120
    assert payload["mc_mean_w"] > 0
    assert payload["mc_std_error_w"] > 0


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["interference", "--mc", "--reps", "1"], "mc_std_error_w"),
        (["se", "--draws", "1"], "mc_std_error"),
        (["ee", "--draws", "1"], "mc_std_error"),
        # 3.9e-8 of draws are served here, so the Monte Carlo serves none
        (["ee", "--x-off", "499"], "mc_std_error"),
    ],
)
def test_unknown_standard_error_prints_as_null(argv, key, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    payload = json.loads(out, parse_constant=_refuse_constant)
    assert payload[key] is None


def test_ppp_interference_has_model_tag(capsys):
    code, out, _ = run_cli(["interference", "--model", "ppp", "--x-off", "300"], capsys)
    assert code == 0
    assert json.loads(out)["model"] == "ppp"


def test_se_reports_bound_exact_and_mc(capsys):
    code, out, _ = run_cli(
        ["se", "--n-t", "8", "--s", "4", "--xi", "10", "--draws", "5000", "--seed", "1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound_bit_s_hz"] >= payload["exact_bit_s_hz"]
    assert payload["mc_mean_bit_s_hz"] == pytest.approx(payload["exact_bit_s_hz"], rel=0.05)


@pytest.mark.parametrize("xi", ["1e-300", "1e-310", "1e-320"])
def test_se_standard_error_of_tiny_rates_stays_positive(xi, capsys):
    # squaring deviations of about xi underflows to 0 unless the draws are scaled first
    code, out, err = run_cli(["se", "--n-t", "4", "--s", "2", "--xi", xi], capsys)
    assert code == 0, err
    payload = json.loads(out, parse_constant=_refuse_constant)
    assert 0.0 < payload["mc_std_error"] < payload["mc_mean_bit_s_hz"]


def test_se_rejects_more_streams_than_antennas(capsys):
    code, _, err = run_cli(["se", "--n-t", "2", "--s", "4"], capsys)
    assert code == 3
    assert err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [["se", "--draws"], ["ee", "--draws"], ["interference", "--mc", "--reps"], ["figure", "6", "--reps"]],
)
def test_explicit_nonpositive_effort_exits_3(argv, value, capsys, tmp_path):
    # an explicit 0 is not "unset": it reaches the >= 1 check instead of running the default effort
    out = tmp_path / "f.csv"
    code, stdout, err = run_cli([*argv, value] + (["--out", str(out)] if argv[0] == "figure" else []), capsys)
    assert code == 3, err
    assert not stdout and ">= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("figure_id", ["2", "6", "9"])
def test_figure_nonpositive_reps_is_rejected_before_any_work(figure_id, value, monkeypatch, capsys, tmp_path):
    # the count is checked before the config is built or any column computed, under the flag's name
    def must_not_run(*args, **kwargs):
        raise AssertionError("the figure ran")

    monkeypatch.setattr(cli, "_load", must_not_run)
    monkeypatch.setattr(cli, "run_figure", must_not_run)
    out = tmp_path / "f.csv"
    code, stdout, err = run_cli(["figure", figure_id, "--reps", value, "--out", str(out)], capsys)
    assert code == 3
    assert not stdout and err == f"error: --reps must be >= 1, got {value}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("xi", ["nan", "inf", "1e308"])  # 1e308 is finite but overflows (xi / s) * gain
def test_se_non_finite_xi_exits_3(xi, capsys):
    code, _, err = run_cli(["se", "--xi", xi, "--draws", "5"], capsys)
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "xi" in lines[0], err


def test_ee_reports_quad_and_mc(capsys):
    code, out, _ = run_cli(
        ["ee", "--n-t", "8", "--s", "4", "--draws", "20000", "--seed", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["quad_bit_hz_j"] == pytest.approx(payload["mc_bit_hz_j"], rel=0.05)
    assert payload["x_off_m"] == 188.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("argv", "analytic", "mc"),
    [
        (["se", "--n-t", "300", "--s", "1", "--xi", "10"], "exact_bit_s_hz", "mc_mean_bit_s_hz"),
        (["ee", "--n-t", "200", "--s", "1"], "quad_bit_hz_j", "mc_bit_hz_j"),
    ],
)
def test_gain_shape_past_the_gamma_range_has_an_analytic_value(argv, analytic, mc, capsys):
    # Gamma(m) overflows a double from gain shape m = 172 on; the Laguerre rule must not divide by it
    code, out, err = run_cli([*argv, "--draws", "20000", "--seed", "3"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert abs(payload[analytic] - payload[mc]) <= 5.0 * payload["mc_std_error"]
    if argv[0] == "se":  # a 30-digit mpmath quadrature of E[log2(1 + 10 G)], G ~ Gamma(300, 1)
        assert payload[analytic] == pytest.approx(11.548823383584477, rel=1e-15, abs=0.0)


def test_ee_divergent_energy_offset_exits_4(capsys):
    code, _, _ = run_cli(["ee", "--x-off", "500"], capsys)
    assert code == 4


def test_ee_too_weak_interference_prints_only_the_error(tmp_path):
    # in a child interpreter, so that a numpy warning would reach stderr instead of pytest's log
    config = tmp_path / "tiny.yaml"
    config.write_text("interference:\n  mean_tx_power: 1.0e-300\n")
    child = subprocess.run(
        [sys.executable, "-m", "hcppnet.cli", "ee", "--config", str(config)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert child.returncode == 3
    lines = child.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), child.stderr


def test_config_file_with_overrides_is_built_once(monkeypatch, capsys, tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("antennas:\n  n_t: 6\n")
    builds = []
    build = config._build
    monkeypatch.setattr(config, "_build", lambda *args: builds.append(args) or build(*args))
    code, out, _ = run_cli(["se", "--config", str(p), "--s", "2", "--draws", "10"], capsys)
    payload = json.loads(out)
    assert code == 0 and len(builds) == 1 and (payload["n_t"], payload["s"]) == (6, 2)


@pytest.mark.parametrize(
    "text, error",
    [
        ("- 1\n- 2\n", "config root must be a mapping, got list"),
        ("antennas: 5\n", "config structure invalid at antennas: must be a mapping, got int"),
    ],
)
def test_override_over_a_non_mapping_reports_the_config_error(text, error, capsys, tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(text)
    code, out, err = run_cli(["se", "--config", str(p), "--s", "2"], capsys)
    assert code == 3 and not out
    assert err.splitlines() == [f"error: {error}"]


def test_validate_ok(capsys, tmp_path):
    p = tmp_path / "ok.yaml"
    p.write_text("seed: 3\n")
    code, out, _ = run_cli(["validate", "--config", str(p)], capsys)
    assert code == 0
    assert "OK" in out


def test_validate_reports_each_problem(capsys, tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("interference:\n  x_off: 800.0\nenergy:\n  x_off: 700.0\n")
    code, _, err = run_cli(["validate", "--config", str(p)], capsys)
    assert code == 3
    # the two single-point offsets, then each figure whose energy curves run at energy.x_off
    diverges = "error: {}analytic mean interference needs x_off < delta, got x_off={}, delta={}"
    assert err.splitlines() == [
        diverges.format("interference.x_off=800.0: ", 800.0, 500.0),
        diverges.format("energy.x_off=700.0: ", 700.0, 500.0),
        diverges.format("figure 8: ", 700.0, 500.0),
        diverges.format("figure 9: ", 700.0, 300.0),
        diverges.format("figure 10: ", 700.0, 500.0),
        diverges.format("figure 11: ", 700.0, 500.0),
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["validate"], ["interference"]])
@pytest.mark.parametrize(
    ("beta_db", "why"), [(4000, "must be a finite number, got inf"), (-4000, "must be > 0, got 0.0")]
)
def test_unit_gain_past_the_double_range_is_one_config_error(command, beta_db, why, capsys, tmp_path):
    # beta_db = +-4000 takes beta past the double range: one report, under the key that set it, with no numpy warning
    p = tmp_path / "beta.yaml"
    p.write_text(f"channel: {{beta_db: {beta_db}}}\n")
    code, out, err = run_cli([*command, "--config", str(p)], capsys)
    assert code == 3 and not out
    assert err.splitlines() == [
        f"error: config structure invalid at channel/beta_db: gives a linear gain 10^(beta_db/10) that {why}"
    ]


@pytest.mark.parametrize("command", [["validate"], ["se"]])
def test_integer_past_the_double_range_is_one_config_error(command, capsys, tmp_path):
    # a YAML integer has no size limit; one past the double range is not a finite number
    big = 10**400
    p = tmp_path / "big.yaml"
    p.write_text(f"antennas: {{n_t: {big}}}\n")
    code, out, err = run_cli([*command, "--config", str(p)], capsys)
    assert code == 3 and not out
    assert err.splitlines() == [f"error: config structure invalid at antennas/n_t: must be a finite number, got {big}"]


def test_validate_unreadable_config_exits_3(capsys, tmp_path):
    code, _, err = run_cli(["validate", "--config", str(tmp_path)], capsys)
    assert code == 3
    assert err.startswith("error:") and str(tmp_path) in err



@pytest.mark.parametrize(
    ("text", "why"),
    [
        ("antennas: {n_t: 1" + "0" * 5000 + "}", "Exceeds the limit (4300 digits)"),  # Python reads no longer int
        ("seed: 2020-13-45", "month must be in 1..12"),  # a date YAML cannot build
    ],
)
def test_validate_unconvertible_yaml_scalar_exits_3(text, why, capsys, tmp_path):
    p = tmp_path / "scalar.yaml"
    p.write_text(text + "\n")
    code, out, err = run_cli(["validate", "--config", str(p)], capsys)
    assert code == 3 and not out
    assert len(err.splitlines()) == 1
    assert err.startswith("error: config file is not valid YAML: ") and why in err


def test_validate_non_utf8_config_exits_3(capsys, tmp_path):
    p = tmp_path / "binary.yaml"
    p.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)) + bytes(64))
    code, _, err = run_cli(["validate", "--config", str(p)], capsys)
    assert code == 3
    assert err.startswith("error:") and "UTF-8" in err

def test_figure_unwritable_output_exits_3(capsys, tmp_path):
    out = tmp_path / "missing" / "f.csv"
    code, _, err = run_cli(["figure", "6", "--reps", "10", "--out", str(out)], capsys)
    assert code == 3
    assert err.startswith("error:") and str(out) in err


def test_figure_csv_deterministic_across_runs(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run_cli(
            ["figure", "6", "--seed", "11", "--reps", "400", "--out", str(out), "--workers", "1"],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    meta = json.loads((tmp_path / "a.meta.json").read_text())
    assert meta["seed"] == 11


def test_figure_csv_worker_count_invariant(capsys, tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    code, _, _ = run_cli(
        ["figure", "6", "--seed", "5", "--reps", "300", "--out", str(serial), "--workers", "1"],
        capsys,
    )
    assert code == 0
    code, _, _ = run_cli(
        ["figure", "6", "--seed", "5", "--reps", "300", "--out", str(parallel), "--workers", "3"],
        capsys,
    )
    assert code == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_interference_figure_csv_worker_count_invariant(capsys, tmp_path):
    # two chunks of realizations, run in one process or in two
    reps = str(_SPAWN_CHUNK + 1)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        argv = ["figure", "3", "--seed", "5", "--reps", reps, "--out", str(out), "--workers", workers]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _child_env():
    """Environment for a child interpreter that imports the same hcppnet as this one.

    A relative PYTHONPATH entry such as ``src`` does not resolve once the child
    runs in another directory, so the absolute directory holding the imported
    package goes first; inherited entries are kept after it.
    """
    env = os.environ.copy()
    entries = [str(Path(hcppnet.__file__).resolve().parents[1])]
    entries += [e for e in env.get("PYTHONPATH", "").split(os.pathsep) if e]
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


def test_console_entry_point_subprocess(tmp_path):
    out = tmp_path / "sub.csv"
    cmd = [
        sys.executable,
        "-m",
        "hcppnet.cli",
        "figure",
        "6",
        "--seed",
        "8",
        "--reps",
        "200",
        "--out",
        str(out),
        "--workers",
        "1",
    ]
    env = _child_env()
    first = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env)
    assert first.returncode == 0, first.stderr
    content_a = out.read_bytes()
    second = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env)
    assert second.returncode == 0, second.stderr
    assert out.read_bytes() == content_a


# a child interpreter in which any import of scipy fails, as where only the runtime dependencies are installed
_WITHOUT_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, RefuseScipy())
"""


def test_every_command_runs_without_scipy(tmp_path):
    (tmp_path / "empty.yaml").write_text("")
    calls = [
        ["validate", "--config", str(tmp_path / "empty.yaml")],
        ["interference", "--mc", "--reps", "2"],
        ["se", "--draws", "10"],
        ["ee", "--draws", "10"],
        ["figure", "2", "--reps", "2", "--workers", "1", "--out", str(tmp_path / "f2.csv")],
        ["figure", "6", "--reps", "20", "--workers", "1", "--out", str(tmp_path / "f6.csv")],
    ]
    code = _WITHOUT_SCIPY + f"""
import numpy as np
from hcppnet import HcppParams, Window, sample_hcpp
from hcppnet.cli import main

for argv in {calls!r}:
    assert main(argv) == 0, argv
assert len(sample_hcpp(HcppParams(1e-5, 100.0), Window.square(2000.0), np.random.default_rng(1))) > 0
try:
    import scipy
except ModuleNotFoundError:
    print("refused")
"""
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip().splitlines()[-1] == "refused"


def test_no_library_module_imports_scipy():
    # neither at module level nor inside a function that no command happens to call
    for path in sorted(Path(hcppnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], f"{path.name} line {node.lineno}"


def test_importing_the_package_loads_no_numpy_random():
    # the Monte Carlo routes reach numpy.random through the generators they are handed, so the import and the
    # defaults, which a run's setup time counts, do not load it
    code = "import sys, hcppnet; hcppnet.load_config(None); print('numpy.random' in sys.modules)"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"


def test_loading_the_defaults_needs_no_schema_or_spatial_module():
    # nor the YAML parser, which only a config file needs, nor the process pool, which a serial run skips,
    # nor the package metadata reader, which only a figure's .meta.json needs
    lazy = "{'jsonschema', 'scipy.spatial', 'yaml', 'concurrent.futures.process', 'importlib.metadata'}"
    code = (
        "import sys, hcppnet, hcppnet.cli; hcppnet.load_config(None); "
        f"print(sorted({lazy} & set(sys.modules))); "
        "hcppnet.cli.main(['interference', '--mc', '--reps', '2']); "
        f"print(sorted({lazy} & set(sys.modules)))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert child.returncode == 0, child.stderr
    lines = child.stdout.strip().splitlines()
    assert lines[0] == lines[-1] == "[]"
