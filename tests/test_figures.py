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
        "162e61fce192389cd9df4d73d59f832ef2b0b4208cbcaf89606dc16a91648817",
        48,
        "x_off",
        ["hcpp alpha=3.4", "ppp alpha=3.4", "hcpp alpha=3.8", "ppp alpha=3.8", "hcpp alpha=4.2", "ppp alpha=4.2"],
    ),
    3: (
        "ede972f4017621de40daff3002fa32fc0f3638891d8b3db08bc5edf8583a280c",
        24,
        "x_off",
        ["hcpp delta=300", "hcpp delta=400", "hcpp delta=500"],
    ),
    4: (
        "4d853289aa135c027efec6d735143fa432b0238d7696999948de6be556e7e266",
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
        "68e46699662092d39b20e77f50ecafe0f5534d66549b6b96f16694c75456da03",
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
        "ed0d9b48d80a0192add840b55f48dc9e7e3b0d67c2239249c9207d8f49a926f4",
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
