import struct

import numpy as np
import pytest

from gpgd.datasets import (
    Dataset,
    DatasetError,
    load_dataset_csv,
    load_idx,
    save_dataset_csv,
    synth_dataset,
)


def write_idx_fixture(path, images):
    """images: (count, rows, cols) uint8."""
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def test_load_idx_fixture(tmp_path):
    imgs = np.array(
        [[[0, 255], [128, 64]], [[1, 2], [3, 4]]], dtype=np.uint8
    )
    path = tmp_path / "two.idx"
    write_idx_fixture(path, imgs)
    ds = load_idx(path)
    assert len(ds) == 2
    assert ds.n == 4
    assert ds.shape2d == (2, 2)
    assert ds.items[0, 0] == 0.0
    assert ds.items[0, 1] == 1.0  # byte 255 -> 1.0
    assert ds.items[0, 2] == pytest.approx(128 / 255)


def test_load_idx_wrong_magic(tmp_path):
    path = tmp_path / "bad.idx"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000801, 1, 2, 2))
        fh.write(bytes(4))
    with pytest.raises(DatasetError) as exc:
        load_idx(path)
    assert "0x00000803" in str(exc.value)
    assert "0x00000801" in str(exc.value)


def test_load_idx_truncated(tmp_path):
    path = tmp_path / "short.idx"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
        fh.write(bytes(5))  # needs 8
    with pytest.raises(DatasetError):
        load_idx(path)


def test_synth_deterministic():
    a = synth_dataset("bars", 64, 5, seed=3)
    b = synth_dataset("bars", 64, 5, seed=3)
    assert np.array_equal(a.items, b.items)
    c = synth_dataset("bars", 64, 5, seed=4)
    assert not np.array_equal(a.items, c.items)


def test_bars_entries_binary():
    ds = synth_dataset("bars", 64, 20, seed=1)
    assert set(np.unique(ds.items)) <= {0.0, 1.0}
    assert ds.shape2d == (8, 8)


def test_gaussians_clamped():
    ds = synth_dataset("gaussians", 64, 20, seed=2)
    assert ds.items.max() <= 1.0
    assert ds.items.min() >= 0.0


def test_sparse_combos_sparsity_and_scale():
    ds = synth_dataset("sparse-combos", 32, 20, seed=5, k=3)
    for item in ds.items:
        assert np.count_nonzero(item) <= 3
        assert item.max() == pytest.approx(1.0)
        assert item.min() >= 0.0


def test_unknown_generator():
    with pytest.raises(DatasetError):
        synth_dataset("perlin", 64, 2, seed=0)


def test_nonsquare_length_rejected_for_images():
    with pytest.raises(DatasetError):
        synth_dataset("bars", 60, 2, seed=0)


def test_dataset_csv_roundtrip(tmp_path):
    ds = synth_dataset("gaussians", 16, 7, seed=6)
    path = tmp_path / "ds.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    assert back.shape2d == ds.shape2d
    assert np.array_equal(back.items, ds.items)


def test_dataset_validation(tmp_path):
    with pytest.raises(DatasetError):
        Dataset(np.array([[0.5, 1.5]]), None, "x")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DatasetError):
            Dataset(np.array([[0.5, bad]]), None, "x")
    path = tmp_path / "nan.csv"
    path.write_text("0.5,0.25\n0.5,nan\n")
    with pytest.raises(DatasetError, match="finite"):
        load_dataset_csv(path)
    with pytest.raises(DatasetError):
        Dataset(np.array([[0.5, 0.5]]), (3, 3), "x")
