"""Synthetic dataset generation and the manifest contract."""

import json

import numpy as np
import pytest

from vqcontrast import DatasetManifest, generate_dataset, load_tensor_file, save_tensor_file
from vqcontrast.data import EEG_FILE, IMAGE_EMB_FILE, LABELS_FILE, MANIFEST_FILE
from vqcontrast.errors import ConfigurationError, ZeroShotOverlapError

GEN_KW = dict(
    n_train_classes=3,
    n_test_classes=2,
    samples_per_class=4,
    electrodes=3,
    time_samples=10,
    image_dim=6,
    noise_sigma=0.2,
)


def test_generate_writes_expected_files_and_shapes(tmp_path):
    manifest = generate_dataset(tmp_path, seed=0, **GEN_KW)
    for name in (EEG_FILE, IMAGE_EMB_FILE, LABELS_FILE, MANIFEST_FILE):
        assert (tmp_path / name).exists()
    eeg, emb, labels = manifest.load_arrays()
    assert eeg.shape == (20, 1, 3, 10)
    assert emb.shape == (5, 6)
    assert labels.shape == (20,)
    np.testing.assert_array_equal(np.unique(labels), np.arange(5))
    assert manifest.train_classes == [0, 1, 2]
    assert manifest.test_classes == [3, 4]


def test_same_seed_gives_byte_identical_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_dataset(a, seed=42, **GEN_KW)
    generate_dataset(b, seed=42, **GEN_KW)
    for name in (EEG_FILE, IMAGE_EMB_FILE, LABELS_FILE, MANIFEST_FILE):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_dataset(a, seed=1, **GEN_KW)
    generate_dataset(b, seed=2, **GEN_KW)
    assert (a / EEG_FILE).read_bytes() != (b / EEG_FILE).read_bytes()


def test_zero_noise_collapses_samples_onto_class_prototypes(tmp_path):
    kw = dict(GEN_KW, noise_sigma=0.0)
    manifest = generate_dataset(tmp_path, seed=3, **kw)
    eeg, _, labels = manifest.load_arrays()
    for c in range(5):
        members = eeg[labels == c]
        for row in members:
            np.testing.assert_array_equal(row, members[0])


def test_noisy_samples_cluster_around_prototypes(tmp_path):
    clean = generate_dataset(tmp_path / "clean", seed=4, **dict(GEN_KW, noise_sigma=0.0))
    noisy = generate_dataset(tmp_path / "noisy", seed=4, **dict(GEN_KW, noise_sigma=0.1))
    eeg_c, _, labels = clean.load_arrays()
    eeg_n, _, _ = noisy.load_arrays()
    deviation = eeg_n - eeg_c
    assert 0.0 < np.abs(deviation).max() < 1.0
    # Same seed means identical prototypes, so class means track the clean data.
    for c in range(5):
        np.testing.assert_allclose(
            eeg_n[labels == c].mean(axis=0),
            eeg_c[labels == c].mean(axis=0),
            atol=0.5,
        )


def test_image_embeddings_are_class_prototypes_not_samples(tmp_path):
    manifest = generate_dataset(tmp_path, seed=5, **GEN_KW)
    _, emb, labels = manifest.load_arrays()
    assert emb.shape[0] == len(np.unique(labels))


def test_generate_rejects_invalid_sizes(tmp_path):
    with pytest.raises(ConfigurationError):
        generate_dataset(tmp_path, seed=0, **dict(GEN_KW, n_test_classes=0))
    with pytest.raises(ConfigurationError):
        generate_dataset(tmp_path, seed=0, **dict(GEN_KW, noise_sigma=-0.1))


# ---------------------------------------------------------------------------
# Manifest


def manifest_doc():
    return {
        "eeg_path": EEG_FILE,
        "image_emb_path": IMAGE_EMB_FILE,
        "labels_path": LABELS_FILE,
        "train_classes": [0, 1],
        "test_classes": [2],
    }


def test_manifest_round_trip(tmp_path):
    manifest = generate_dataset(tmp_path, seed=6, **GEN_KW)
    back = DatasetManifest.load(tmp_path / MANIFEST_FILE)
    assert back.train_classes == manifest.train_classes
    assert back.test_classes == manifest.test_classes
    assert back.root == tmp_path


def test_manifest_rejects_overlapping_splits():
    doc = manifest_doc()
    doc["test_classes"] = [1, 2]
    with pytest.raises(ZeroShotOverlapError):
        DatasetManifest(**doc)


def test_manifest_rejects_empty_split():
    doc = manifest_doc()
    doc["test_classes"] = []
    with pytest.raises(ConfigurationError):
        DatasetManifest(**doc)


def test_manifest_load_rejects_unknown_keys(tmp_path):
    doc = manifest_doc()
    doc["extra"] = 1
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="unknown"):
        DatasetManifest.load(path)


def test_manifest_load_rejects_missing_keys(tmp_path):
    doc = manifest_doc()
    del doc["labels_path"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="missing"):
        DatasetManifest.load(path)


def test_manifest_load_rejects_bad_json(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("[1, 2")
    with pytest.raises(ConfigurationError):
        DatasetManifest.load(path)


def test_load_arrays_rejects_fractional_labels(tmp_path):
    generate_dataset(tmp_path, seed=7, **GEN_KW)
    save_tensor_file(tmp_path / LABELS_FILE, np.full(20, 0.5))
    with pytest.raises(ConfigurationError, match="integral"):
        DatasetManifest.load(tmp_path / MANIFEST_FILE).load_arrays()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e30])
def test_load_arrays_rejects_non_integral_labels_without_a_warning(tmp_path, bad):
    generate_dataset(tmp_path, seed=7, **GEN_KW)
    labels = load_tensor_file(tmp_path / LABELS_FILE).astype(np.float64)
    labels[0] = bad
    save_tensor_file(tmp_path / LABELS_FILE, labels)
    with pytest.raises(ConfigurationError, match="integral"):
        DatasetManifest.load(tmp_path / MANIFEST_FILE).load_arrays()


def test_load_arrays_rejects_labels_outside_splits(tmp_path):
    generate_dataset(tmp_path, seed=8, **GEN_KW)
    labels = load_tensor_file(tmp_path / LABELS_FILE).astype(np.float64)
    labels[0] = 99.0
    save_tensor_file(tmp_path / LABELS_FILE, labels)
    with pytest.raises(ConfigurationError):
        DatasetManifest.load(tmp_path / MANIFEST_FILE).load_arrays()


def test_load_arrays_rejects_wrong_eeg_rank(tmp_path):
    generate_dataset(tmp_path, seed=9, **GEN_KW)
    save_tensor_file(tmp_path / EEG_FILE, np.zeros((20, 3, 10)))
    with pytest.raises(ConfigurationError):
        DatasetManifest.load(tmp_path / MANIFEST_FILE).load_arrays()


def test_load_arrays_rejects_label_count_mismatch(tmp_path):
    generate_dataset(tmp_path, seed=10, **GEN_KW)
    save_tensor_file(tmp_path / LABELS_FILE, np.zeros(7))
    with pytest.raises(ConfigurationError):
        DatasetManifest.load(tmp_path / MANIFEST_FILE).load_arrays()
