"""Golden figure tables: CSV bytes and layout of every figure at a fixed seed.

The hashes pin the exact output of ``run_figure(id, SEED_7, reps=3, workers=1)``
so that a refactor of the sweep machinery cannot silently change row order,
labels, per-point seeds or values.  The metadata lists the curve labels in
CSV row order.  ``package_version`` is not pinned: it
differs between a source checkout and an installed copy.
"""

import hashlib

import pytest

from hcppnet import ConfigurationError, ParameterError, config_from_dict
from hcppnet.cli import main
from hcppnet.figures import FIGURE_IDS, _resolve_workers, run_figure

GOLDEN = {
    2: (
        "0698a22688a30570418ede187af82539b16649a0040e9de221a6f6e6e6cee25d",
        48,
        "x_off",
        ["hcpp alpha=3.4", "ppp alpha=3.4", "hcpp alpha=3.8", "ppp alpha=3.8", "hcpp alpha=4.2", "ppp alpha=4.2"],
    ),
    3: (
        "150ac3ed3af6fed8f71b07ad5eec9ec489e8d8f564204749a01767193d9a6ee4",
        24,
        "x_off",
        ["hcpp delta=300", "hcpp delta=400", "hcpp delta=500"],
    ),
    4: (
        "69a35d9ffa42117a0954a3e1f15e4d21b6b4c09f83ca12e6076046b9cb9fc081",
        27,
        "x_off",
        ["hcpp lambda_p=2.4868e-07", "hcpp lambda_p=4.9736e-07", "hcpp lambda_p=9.9472e-07"],
    ),
    6: (
        "a682ce0a0c9911ab4dc216e13ffd9fb893c6e5855be8196f4d35b5ff69b2d0f1",
        39,
        "xi",
        ["n_t=2", "n_t=4", "n_t=8"],
    ),
    7: (
        "11ef667fe7271c2eccf8454ea43cfc431c1c5417ea2f35a14b14e2dc9aee5529",
        52,
        "xi",
        ["s=1", "s=2", "s=4", "s=8"],
    ),
    8: (
        "0c83e4a3257ce6b8c6f7d609e36b373c7c59ce0ece03503a5e766fe7b56f2c14",
        72,
        "s",
        ["hcpp n_t=8", "ppp n_t=8", "hcpp n_t=12", "ppp n_t=12", "hcpp n_t=16", "ppp n_t=16"],
    ),
    9: (
        "be2b21b4b58ae7a73463bf6f1882f3b51be053e1261103b2fb4e7a3757767ab1",
        64,
        "n",
        ["hcpp delta=300", "hcpp delta=400", "hcpp delta=500", "ppp"],
    ),
    10: (
        "cf68a10757ffd18383581e9e85acf6a110d0044645193a232dfd7fdce1969038",
        96,
        "n",
        ["hcpp theta=1.2", "ppp theta=1.2", "hcpp theta=1.5", "ppp theta=1.5", "hcpp theta=1.8", "ppp theta=1.8"],
    ),
    11: (
        "8216493a673dc0389f8265930d30260970bdb2b9f0d52700398d1bcf54f4ba4f",
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


def test_zero_reps_is_not_the_default_effort():
    with pytest.raises(ParameterError, match=">= 1"):
        run_figure(6, SEED_7, reps=0, workers=1)


def test_worker_count_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("HCPPNET_WORKERS", "not a number")
    assert _resolve_workers(None, 6, 39) == 1
    assert _resolve_workers(3, 6, 39) == 3


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
