"""Synthetic dataset generation and the manifest contract."""

import copy
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from vqcontrast import (
    DatasetManifest, data, generate_dataset, load_tensor_file, save_tensor_file,
)
from vqcontrast.data import EEG_FILE, IMAGE_EMB_FILE, LABELS_FILE, MANIFEST_FILE
from vqcontrast.errors import ConfigurationError, NumericError
from vqcontrast.qtns import tensor_record_bytes

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
    assert eeg.shape == (20, 3, 10)
    assert emb.shape == (5, 6)
    assert labels.shape == (20,)
    np.testing.assert_array_equal(np.unique(labels), np.arange(5))
    assert manifest.train_classes == (0, 1, 2)
    assert manifest.test_classes == (3, 4)


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


@pytest.mark.parametrize("bad", [
    dict(noise_sigma=float("nan")),
    dict(noise_sigma=float("inf")),
    dict(noise_sigma="0.2"),
    dict(samples_per_class=2.5),
    dict(electrodes=True),
    dict(image_dim=np.int64(6)),
    dict(seed=-1),
    dict(seed=1.0),
], ids=str)
def test_generate_rejects_arguments_before_writing(tmp_path, bad):
    kw = {**GEN_KW, "seed": 0, **bad}
    with pytest.raises(ConfigurationError, match=next(iter(bad))):
        generate_dataset(tmp_path / "out", **kw)
    assert not (tmp_path / "out").exists()


def test_generate_refuses_noise_past_float32_before_the_manifest(tmp_path):
    """Samples the float32 file cannot hold are refused, not stored as inf."""
    with pytest.raises(NumericError, match="noise_sigma"):
        generate_dataset(tmp_path, seed=0, **dict(GEN_KW, noise_sigma=1e39))
    assert not (tmp_path / MANIFEST_FILE).exists()


CHUNK = data._CHUNK_ROWS


def one_shot_files(seed, n_classes, samples_per_class, electrodes, time_samples, image_dim,
                   noise_sigma, latent_dim=2):
    """The three tensor files as bytes, the EEG noise drawn in one call."""
    rng = np.random.default_rng(seed)
    eeg_map = rng.standard_normal((latent_dim, electrodes * time_samples))
    img_map = rng.standard_normal((latent_dim, image_dim))
    latents = rng.standard_normal((n_classes, latent_dim))
    scale = 1.0 / np.sqrt(latent_dim)
    protos = (latents @ eeg_map * scale).reshape(n_classes, electrodes, time_samples)
    labels = np.repeat(np.arange(n_classes), samples_per_class)
    noise = rng.standard_normal((len(labels), electrodes, time_samples))
    eeg = protos[labels] + noise_sigma * noise
    return {EEG_FILE: tensor_record_bytes(eeg),
            IMAGE_EMB_FILE: tensor_record_bytes(latents @ img_map * scale),
            LABELS_FILE: tensor_record_bytes(labels)}


@pytest.mark.parametrize("n_classes, samples_per_class", [
    (2, 1),              # the fewest samples a dataset can have: one per split
    (CHUNK - 1, 1),
    (CHUNK, 1),
    (CHUNK + 1, 1),
    (5, 2 * CHUNK // 5 + 1),  # three chunks, the last one short
])
def test_streamed_files_equal_the_one_shot_draw(tmp_path, n_classes, samples_per_class):
    geometry = dict(samples_per_class=samples_per_class, electrodes=3, time_samples=10,
                    image_dim=6, noise_sigma=0.2)
    generate_dataset(tmp_path, seed=11, n_train_classes=n_classes - 1, n_test_classes=1,
                     **geometry)
    for name, expected in one_shot_files(11, n_classes, **geometry).items():
        assert (tmp_path / name).read_bytes() == expected, name


EVAL_GEOMETRY = dict(n_train_classes=8, n_test_classes=32, electrodes=17, time_samples=100,
                     image_dim=512, noise_sigma=0.3)  # the retrieval-eval bench workload's


def generation_peak(out_dir, samples_per_class) -> int:
    """Peak bytes numpy and Python allocate while generating at retrieval-eval geometry."""
    tracemalloc.start()
    try:
        generate_dataset(out_dir, seed=7, samples_per_class=samples_per_class,
                         **EVAL_GEOMETRY)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_memory_is_a_few_chunks_whatever_the_sample_count(tmp_path):
    generation_peak(tmp_path / "warm", 1)  # first-call allocations are not the data's
    chunk = CHUNK * 17 * 100 * 8  # one chunk of float64 samples
    small = generation_peak(tmp_path / "small", 32)  # 1280 samples, 8.3 MiB as float32
    large = generation_peak(tmp_path / "large", 128)
    assert small < 4 * chunk
    assert large < small + chunk / 4


def test_load_arrays_keeps_the_stored_float32_and_peaks_near_its_size(tmp_path):
    generate_dataset(tmp_path, seed=7, samples_per_class=32, **EVAL_GEOMETRY)
    manifest = DatasetManifest.load(tmp_path / MANIFEST_FILE)
    tracemalloc.start()
    try:
        eeg, emb, _ = manifest.load_arrays()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eeg.dtype == emb.dtype == np.float32
    assert peak < 1.25 * eeg.nbytes, peak / eeg.nbytes  # 8.3 MiB of EEG samples


# ---------------------------------------------------------------------------
# Manifest


def manifest_doc():
    return {
        "train_classes": [0, 1],
        "test_classes": [2],
    }


def test_manifest_round_trip(tmp_path):
    manifest = generate_dataset(tmp_path, seed=6, **GEN_KW)
    # the tensor files sit beside it under fixed names; the manifest holds the split
    assert sorted(json.loads((tmp_path / MANIFEST_FILE).read_text())) == [
        "test_classes", "train_classes"]
    back = DatasetManifest.load(tmp_path / MANIFEST_FILE)
    assert back.train_classes == manifest.train_classes
    assert back.test_classes == manifest.test_classes
    assert back.root == tmp_path


def test_manifest_rejects_overlapping_splits():
    doc = manifest_doc()
    doc["test_classes"] = [1, 2]
    with pytest.raises(ConfigurationError, match="appear in both"):
        DatasetManifest(**doc)


def test_manifest_rejects_repeated_class_ids():
    """A repeated held-out class would rank two gallery rows for one class."""
    for split, ids in (("train_classes", [0, 1, 1]), ("test_classes", [2, 2, 3])):
        doc = {**manifest_doc(), "train_classes": [0, 1], "test_classes": [2, 3], split: ids}
        with pytest.raises(ConfigurationError, match=f"{split} repeats a class id"):
            DatasetManifest(**doc)


def test_manifest_takes_a_string_root(tmp_path):
    generate_dataset(tmp_path, seed=6, **GEN_KW)
    doc = json.loads((tmp_path / MANIFEST_FILE).read_text())
    manifest = DatasetManifest(root=str(tmp_path), **doc)
    assert manifest.root == tmp_path
    assert manifest.load_arrays()[0].shape == (20, 3, 10)


def test_manifest_rejects_a_root_that_is_not_a_path():
    for root in (5, None, b"data"):
        with pytest.raises(ConfigurationError, match="root must be a path"):
            DatasetManifest([0], [1], root=root)


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
    del doc["test_classes"]
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
    save_tensor_file(tmp_path / EEG_FILE, np.zeros((20, 30)))
    with pytest.raises(ConfigurationError):
        DatasetManifest.load(tmp_path / MANIFEST_FILE).load_arrays()


def test_load_arrays_refuses_the_old_four_axis_eeg_layout(tmp_path):
    """A dataset written with a singleton channel axis, (N, 1, E, T), is refused."""
    generate_dataset(tmp_path, seed=9, **GEN_KW)
    eeg = load_tensor_file(tmp_path / EEG_FILE)
    save_tensor_file(tmp_path / EEG_FILE, eeg[:, None])
    with pytest.raises(ConfigurationError, match=r"\[N, E, T\], got \(20, 1, 3, 10\)"):
        DatasetManifest.load(tmp_path / MANIFEST_FILE).load_arrays()


def test_load_arrays_rejects_label_count_mismatch(tmp_path):
    generate_dataset(tmp_path, seed=10, **GEN_KW)
    save_tensor_file(tmp_path / LABELS_FILE, np.zeros(7))
    with pytest.raises(ConfigurationError):
        DatasetManifest.load(tmp_path / MANIFEST_FILE).load_arrays()


# ---------------------------------------------------------------------------
# Reading once


@pytest.fixture
def reads(monkeypatch):
    """Names of the files read through ``data.load_tensor_file``, in order."""
    names = []

    def counting(path):
        names.append(path.name)
        return load_tensor_file(path)

    monkeypatch.setattr(data, "load_tensor_file", counting)
    return names


def test_load_arrays_reads_each_file_once(tmp_path, reads):
    generate_dataset(tmp_path, seed=7, **GEN_KW)
    manifest = DatasetManifest.load(tmp_path / MANIFEST_FILE)
    first = manifest.load_arrays()
    assert sorted(reads) == sorted([EEG_FILE, IMAGE_EMB_FILE, LABELS_FILE])
    second = manifest.load_arrays()
    assert len(reads) == 3
    assert all(a is b for a, b in zip(first, second))


def test_loaded_arrays_are_read_only(tmp_path):
    manifest = generate_dataset(tmp_path, seed=7, **GEN_KW)
    for array in manifest.load_arrays():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_edited_copy_reads_and_checks_again(tmp_path, reads):
    manifest = generate_dataset(tmp_path, seed=7, **GEN_KW)
    eeg, _, _ = manifest.load_arrays()
    # classes are 0..4: no image embedding for 5
    twin = dataclasses.replace(manifest, test_classes=[*manifest.test_classes, 5])
    with pytest.raises(ConfigurationError, match="past the image embedding table"):
        twin.load_arrays()
    assert len(reads) == 6
    assert manifest.load_arrays()[0] is eeg
    assert len(reads) == 6


def test_copy_reads_its_own_read_only_arrays(tmp_path, reads):
    manifest = generate_dataset(tmp_path, seed=7, **GEN_KW)
    eeg, _, _ = manifest.load_arrays()
    twin_eeg, _, _ = copy.deepcopy(manifest).load_arrays()
    assert len(reads) == 6
    np.testing.assert_array_equal(twin_eeg, eeg)
    assert not twin_eeg.flags.writeable
