"""Golden figure tables: CSV bytes and layout of every figure at a fixed seed.

The hashes pin the exact output of ``run_figure(id, SEED_7, reps=3, workers=1)``
so that a refactor of the sweep machinery cannot silently change row order,
labels, seeds or values.  The metadata lists the curve labels in
CSV row order.  ``package_version`` is not pinned: it
differs between a source checkout and an installed copy.
"""

import hashlib
import os
from dataclasses import replace
from unittest import mock

import pytest

from hcppnet import ConfigurationError, ParameterError, config_from_dict, energy_efficiency_mc, spectral_efficiency_mc
from hcppnet.cli import main
from hcppnet import figures
from hcppnet.figures import FIGURE_IDS, _resolve_workers, _rng_for, _tasks, run_figure
from hcppnet.interference import Estimate, _influence, _mc_row, _tagged_station_mc

GOLDEN = {
    2: (
        "afa7f111923c8bf830bb6fa18c474dd2e670320ec137d18d7b5752d2913a48ac",
        48,
        "x_off",
        ["hcpp alpha=3.4", "ppp alpha=3.4", "hcpp alpha=3.8", "ppp alpha=3.8", "hcpp alpha=4.2", "ppp alpha=4.2"],
    ),
    3: (
        "3c0b16ea92714d2e6ce8728d54398f2a272295a4914e33c251f6bf20b728537f",
        24,
        "x_off",
        ["hcpp delta=300", "hcpp delta=400", "hcpp delta=500"],
    ),
    4: (
        "a14cba3911cb7cb9cec293fb9be8d08a48a4bd7248ca594739586c38c4f4597e",
        27,
        "x_off",
        ["hcpp lambda_p=2.4868e-07", "hcpp lambda_p=4.9736e-07", "hcpp lambda_p=9.9472e-07"],
    ),
    6: (
        "332bdd7b296809b3246d8f7274a4c3bbe3d28fd4d2dfd7c5e434cb4d7647e75b",
        39,
        "xi",
        ["n_t=2", "n_t=4", "n_t=8"],
    ),
    7: (
        "c3784595247abc2ccb8deb1e473a2d1dd1e05b67922c92a1efae17740342a343",
        52,
        "xi",
        ["s=1", "s=2", "s=4", "s=8"],
    ),
    8: (
        "9ed7d139b74e61fee076e1aadabd68565f425a3f7d692f5feb8cac2a87fe68d1",
        72,
        "s",
        ["hcpp n_t=8", "ppp n_t=8", "hcpp n_t=12", "ppp n_t=12", "hcpp n_t=16", "ppp n_t=16"],
    ),
    9: (
        "1ed27eaab83747f343617a498385036755e51b876b045fcc9c93cc84ef97d9cc",
        64,
        "n",
        ["hcpp delta=300", "hcpp delta=400", "hcpp delta=500", "ppp"],
    ),
    10: (
        "fae0a8a912821ca978cf2e52b1e3204394d27b6ee06aaea54435d7e90173b8da",
        96,
        "n",
        ["hcpp theta=1.2", "ppp theta=1.2", "hcpp theta=1.5", "ppp theta=1.5", "hcpp theta=1.8", "ppp theta=1.8"],
    ),
    11: (
        "a0bdc4dc0bf2e3b9bfd7c6acd67394fd6eb487e95b0fdbb3e77d87c9e5da3ce1",
        96,
        "n",
        ["hcpp alpha=3.8", "ppp alpha=3.8", "hcpp alpha=4", "ppp alpha=4", "hcpp alpha=4.2", "ppp alpha=4.2"],
    ),
}


SEED_7 = config_from_dict({"seed": 7})


def test_golden_covers_every_figure():
    assert sorted(GOLDEN) == sorted(FIGURE_IDS)


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_figure_csv_bytes_are_golden(figure_id, tmp_path):
    sha, n_rows, axis, series = GOLDEN[figure_id]
    table = run_figure(figure_id, SEED_7, reps=3, workers=1)
    path = tmp_path / f"figure{figure_id}.csv"
    table.write_csv(str(path))
    assert len(table.rows) == n_rows
    assert table.metadata["axis"] == axis
    assert table.metadata["series"] == series
    assert table.metadata["seed"] == 7
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def test_interference_figure_chunks_join_into_one_layout_set(monkeypatch):
    # realization i of a lambda family consumes child i of the family's stream,
    # whichever chunk of realizations runs it
    reps = 15
    tasks = _tasks(3, SEED_7, reps)
    rows = [_mc_row(t.model, t.scenario) for t in tasks]
    means, terms = _influence(rows, *_tagged_station_mc(rows, reps, _rng_for(*tasks[0].seed_key)))
    monkeypatch.setattr(figures, "_SPAWN_CHUNK", 7)
    table = run_figure(3, SEED_7, reps=reps, workers=1)
    assert [Estimate(r.mc_mean, r.mc_std_error, r.replications) for r in table.rows] == [
        Estimate.from_influence(mean, row_terms, reps) for mean, row_terms in zip(means, terms)
    ]


def test_interference_figure_keys_one_stream_per_lambda_family():
    assert {t.seed_key for t in _tasks(2, SEED_7, 3)} == {(7, 2, 0)}
    assert {t.seed_key for t in _tasks(3, SEED_7, 3)} == {(7, 3, 0)}
    assert [t.seed_key for t in _tasks(4, SEED_7, 3)][::9] == [(7, 4, 0), (7, 4, 1), (7, 4, 2)]


def test_efficiency_figure_keys_one_draw_set_per_figure_or_curve():
    for figure_id in (8, 9, 10, 11):
        assert {t.seed_key for t in _tasks(figure_id, SEED_7, 3)} == {(7, figure_id)}
    assert [t.seed_key for t in _tasks(6, SEED_7, 3)][::13] == [(7, 6, 0), (7, 6, 1), (7, 6, 2)]
    assert [t.seed_key for t in _tasks(7, SEED_7, 3)][::13] == [(7, 7, 0), (7, 7, 1), (7, 7, 2), (7, 7, 3)]


@pytest.mark.parametrize("figure_id", [6, 7, 8, 9, 10, 11])
def test_efficiency_rows_are_their_estimator_run_alone_on_the_shared_stream(figure_id):
    # a single point's estimator is the one-row case of its figure path: a curve's gain matrix
    # serves each xi, and a figure's draw set each energy row, as a run of that row alone draws them
    reps = 400
    table = run_figure(figure_id, SEED_7, reps=reps, workers=1)
    for task, row in zip(_tasks(figure_id, SEED_7, reps), table.rows, strict=True):
        rng = _rng_for(*task.seed_key)
        if task.kind == "se":
            est = spectral_efficiency_mc(task.antennas, task.sweep_value, reps, rng)
        else:
            cfg, tm, scenario, energy, i_avg, intensity = task.ee_inputs()
            est = energy_efficiency_mc(cfg, tm, scenario, energy, reps, rng, i_avg, intensity)
        assert (row.mc_mean, row.mc_std_error, row.replications) == (est.mean, est.std_error, est.replications)


@pytest.mark.parametrize("figure_id", [8, 9])
def test_efficiency_figure_bytes_do_not_depend_on_workers(figure_id, tmp_path, capsys):
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        argv = ["figure", str(figure_id), "--seed", "5", "--reps", "2000", "--out", str(out), "--workers", workers]
        assert main(argv) == 0
        outputs.append((out.read_bytes(), out.with_suffix(".meta.json").read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("reps", [0, -3])
def test_interference_figure_rejects_nonpositive_reps(reps):
    with pytest.raises(ParameterError, match=f"got {reps}"):
        run_figure(3, SEED_7, reps=reps, workers=1)


@pytest.mark.parametrize(
    ("figure_id", "cfg", "reps", "name"),
    [
        (2, SEED_7, 0, "reps"),
        (9, SEED_7, 0, "reps"),
        # a config built in code skips the config file's bounds: the count it resolves is checked too
        (2, replace(SEED_7, realizations=0), None, "realizations"),
        (9, replace(SEED_7, ee_draws=0), None, "ee_draws"),
    ],
    ids=["2", "9", "2-realizations", "9-ee_draws"],
)
def test_library_reps_below_one_is_rejected_before_the_analytic_columns(figure_id, cfg, reps, name, monkeypatch):
    # the count is checked under its own name where _tasks resolves it, not by the estimator after the analytic work
    analytic = mock.Mock(wraps=figures.model_interference)
    monkeypatch.setattr(figures, "model_interference", analytic)
    with pytest.raises(ParameterError, match=f"^{name} must be >= 1, got 0$"):
        run_figure(figure_id, cfg, reps=reps, workers=1)
    assert analytic.call_count == 0


def test_zero_reps_is_not_the_default_effort():
    with pytest.raises(ParameterError, match=">= 1"):
        run_figure(6, SEED_7, reps=0, workers=1)


def test_worker_count_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("HCPPNET_WORKERS", "not a number")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _resolve_workers(None, 39) == 4
    assert _resolve_workers(3, 39) == 3
    assert _resolve_workers(None, 2) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _resolve_workers(None, 39) == 1


@pytest.mark.parametrize("figure_id", [3, 6, 9])
def test_worker_count_below_one_is_rejected(figure_id):
    with pytest.raises(ConfigurationError, match="worker count must be >= 1"):
        run_figure(figure_id, SEED_7, reps=3, workers=0)


@pytest.mark.parametrize(("figure_id", "axis", "values"), [(9, "n", [1.5, 2.0]), (8, "s", [2.7])])
def test_fractional_antenna_sweep_is_rejected(figure_id, axis, values):
    cfg = config_from_dict({"seed": 7, "sweep": {"axis": axis, "values": values}})
    with pytest.raises(ConfigurationError, match="not an integer"):
        run_figure(figure_id, cfg, reps=3, workers=1)


def test_fractional_antenna_sweep_exits_3(tmp_path, capsys):
    config = tmp_path / "sweep.yaml"
    config.write_text("sweep:\n  axis: n\n  values: [1.5, 2.0]\n")
    out = tmp_path / "f.csv"
    assert main(["figure", "9", "--config", str(config), "--reps", "3", "--out", str(out)]) == 3
    assert "not an integer" in capsys.readouterr().err
    assert not out.exists()
