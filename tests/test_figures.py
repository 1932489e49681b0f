"""Golden figure tables: CSV bytes and layout of every figure at a fixed seed.

The hashes pin the exact output of ``run_figure(id, reps=3, seed=7, workers=1)``
so that a refactor of the sweep machinery cannot silently change row order,
labels, per-point seeds or values.  The metadata lists the curve labels in
CSV row order.  ``package_version`` is not pinned: it
differs between a source checkout and an installed copy.
"""

import hashlib

import pytest

from hcppnet.figures import FIGURE_IDS, _resolve_workers, run_figure

GOLDEN = {
    2: (
        "e0eae9599987a7c8e8b02cc417c6a8f18f535d4a9179c147cd90da24c7289199",
        48,
        "x_off",
        ["hcpp alpha=3.4", "ppp alpha=3.4", "hcpp alpha=3.8", "ppp alpha=3.8", "hcpp alpha=4.2", "ppp alpha=4.2"],
    ),
    3: (
        "0a42ec1ddb9f07b0d8bb1979a13809e1a2ae77ab572582d4c596b58fc28f8b59",
        24,
        "x_off",
        ["hcpp delta=300", "hcpp delta=400", "hcpp delta=500"],
    ),
    4: (
        "32e9fadf3f7ec6936966e0f2709a07792d16882765079e99072b00bec39b918f",
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
        "87b5c9cad449af8a901bbb5ffc6552443a6082f6fc9e05b5b73fbaf33213faab",
        72,
        "s",
        ["hcpp n_t=8", "ppp n_t=8", "hcpp n_t=12", "ppp n_t=12", "hcpp n_t=16", "ppp n_t=16"],
    ),
    9: (
        "a0d66036487a0e196320ec65164b49e67cf05917ab1c4e0d462f737dcd8ba0c2",
        64,
        "n",
        ["hcpp delta=300", "hcpp delta=400", "hcpp delta=500", "ppp"],
    ),
    10: (
        "ea2abb8e0f591992acbd0d5e49fc5b3f5a49e59989af2f3f3630b85eb939dcf9",
        96,
        "n",
        ["hcpp theta=1.2", "ppp theta=1.2", "hcpp theta=1.5", "ppp theta=1.5", "hcpp theta=1.8", "ppp theta=1.8"],
    ),
    11: (
        "1434458050f32506643c27343738e3c72d18eccfa5106ddc7b44e38f2bf5b734",
        96,
        "n",
        ["hcpp alpha=3.8", "ppp alpha=3.8", "hcpp alpha=4", "ppp alpha=4", "hcpp alpha=4.2", "ppp alpha=4.2"],
    ),
}


def test_golden_covers_every_figure():
    assert sorted(GOLDEN) == sorted(FIGURE_IDS)


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_figure_csv_bytes_are_golden(figure_id, tmp_path):
    sha, n_rows, axis, series = GOLDEN[figure_id]
    table = run_figure(figure_id, reps=3, seed=7, workers=1)
    path = tmp_path / f"figure{figure_id}.csv"
    table.write_csv(str(path))
    assert len(table.rows) == n_rows
    assert table.metadata["axis"] == axis
    assert table.metadata["series"] == series
    assert table.metadata["seed"] == 7
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def test_worker_count_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("HCPPNET_WORKERS", "not a number")
    assert _resolve_workers(None, 6, 39) == 1
    assert _resolve_workers(3, 6, 39) == 3
