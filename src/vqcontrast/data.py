"""Synthetic paired EEG/image dataset and its on-disk manifest.

Each class owns a latent vector; fixed random linear maps turn it into an
EEG prototype and an image-embedding prototype, so the two modalities are
genuinely correlated and cross-modal retrieval is learnable.  Samples are
the class prototype plus Gaussian noise.  Everything is deterministic
given the seed, down to the bytes on disk.

The manifest is a small JSON file naming the three tensor files and the
train/test class split; tensor paths are stored relative to the manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericError, ZeroShotOverlapError
from .qtns import load_tensor_file, save_tensor_file

_MANIFEST_KEYS = {"eeg_path", "image_emb_path", "labels_path", "train_classes", "test_classes"}

EEG_FILE = "eeg.qtns"
IMAGE_EMB_FILE = "image_emb.qtns"
LABELS_FILE = "labels.qtns"
MANIFEST_FILE = "manifest.json"


def _class_ids(name: str, values) -> list[int]:
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 0
        for c in values
    ):
        raise ConfigurationError(
            f"{name} must be a list of non-negative integer class ids, got {values!r}"
        )
    return [int(c) for c in values]


@dataclass
class DatasetManifest:
    """Paths and split descriptor for one dataset directory."""

    eeg_path: str
    image_emb_path: str
    labels_path: str
    train_classes: list[int]
    test_classes: list[int]
    root: Path = field(default_factory=Path, compare=False)

    def __post_init__(self):
        for name in ("eeg_path", "image_emb_path", "labels_path"):
            if not isinstance(path := getattr(self, name), str) or "\0" in path:
                raise ConfigurationError(f"{name} must be a path string without NUL")
        self.train_classes = _class_ids("train_classes", self.train_classes)
        self.test_classes = _class_ids("test_classes", self.test_classes)
        if not self.train_classes or not self.test_classes:
            raise ConfigurationError("both class splits must be non-empty")
        overlap = set(self.train_classes) & set(self.test_classes)
        if overlap:
            raise ZeroShotOverlapError(
                f"classes {sorted(overlap)} appear in both train and test splits"
            )

    def save(self, path) -> None:
        doc = {key: getattr(self, key) for key in _MANIFEST_KEYS}
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"manifest is not valid UTF-8 JSON: {exc}")
        if not isinstance(doc, dict):
            raise ConfigurationError("manifest must be a JSON object")
        unknown = set(doc) - _MANIFEST_KEYS
        if unknown:
            raise ConfigurationError(f"unknown manifest keys: {sorted(unknown)}")
        missing = _MANIFEST_KEYS - set(doc)
        if missing:
            raise ConfigurationError(f"manifest missing keys: {sorted(missing)}")
        return cls(root=path.parent, **{k: doc[k] for k in _MANIFEST_KEYS})

    def load_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (eeg [N,1,E,T] f64, image_emb [C,D_img] f64, labels [N] int)."""
        eeg = load_tensor_file(self.root / self.eeg_path)
        emb = load_tensor_file(self.root / self.image_emb_path)
        labels_f = load_tensor_file(self.root / self.labels_path)
        for path, array in ((self.eeg_path, eeg), (self.image_emb_path, emb)):
            if not np.isfinite(array).all():  # on the float32 payload: half the bytes
                raise NumericError(f"{path} holds non-finite values")
        eeg, emb = eeg.astype(np.float64), emb.astype(np.float64)
        if eeg.ndim != 4 or eeg.shape[1] != 1:
            raise ConfigurationError(f"EEG tensor must be [N, 1, E, T], got {eeg.shape}")
        if emb.ndim != 2:
            raise ConfigurationError(f"image embeddings must be [C, D], got {emb.shape}")
        if labels_f.ndim != 1 or labels_f.shape[0] != eeg.shape[0]:
            raise ConfigurationError(
                f"labels shape {labels_f.shape} does not match {eeg.shape[0]} samples"
            )
        with np.errstate(invalid="ignore"):  # NaN, inf or huge labels fail the test below
            labels = labels_f.astype(np.int64)
        if np.any(labels_f != labels):
            raise ConfigurationError("labels must be integral class indices")
        known = set(self.train_classes) | set(self.test_classes)
        if labels.size and not set(np.unique(labels)) <= known:
            raise ConfigurationError("labels reference classes outside both splits")
        # training indexes the table by label, evaluation by every test class
        top = max(labels.max(initial=0), *self.test_classes)
        if top >= emb.shape[0]:
            raise ConfigurationError(f"class {top} indexes past the image embedding table")
        return eeg, emb, labels


def generate_dataset(
    out_dir,
    seed: int,
    n_train_classes: int,
    n_test_classes: int,
    samples_per_class: int,
    electrodes: int,
    time_samples: int,
    image_dim: int,
    noise_sigma: float,
    latent_dim: int = 2,
) -> DatasetManifest:
    """Write the three tensor files plus manifest.json into ``out_dir``."""
    for name, v in (
        ("n_train_classes", n_train_classes), ("n_test_classes", n_test_classes),
        ("samples_per_class", samples_per_class), ("electrodes", electrodes),
        ("time_samples", time_samples), ("image_dim", image_dim),
        ("latent_dim", latent_dim),
    ):
        if v < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {v}")
    if noise_sigma < 0:
        raise ConfigurationError(f"noise_sigma must be >= 0, got {noise_sigma}")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_classes = n_train_classes + n_test_classes
    n_samples = n_classes * samples_per_class

    rng = np.random.default_rng(seed)
    eeg_map = rng.standard_normal((latent_dim, electrodes * time_samples))
    img_map = rng.standard_normal((latent_dim, image_dim))
    latents = rng.standard_normal((n_classes, latent_dim))
    scale = 1.0 / np.sqrt(latent_dim)
    eeg_protos = (latents @ eeg_map * scale).reshape(n_classes, electrodes, time_samples)
    img_protos = latents @ img_map * scale

    labels = np.repeat(np.arange(n_classes), samples_per_class)
    noise = rng.standard_normal((n_samples, electrodes, time_samples))
    eeg = (eeg_protos[labels] + noise_sigma * noise)[:, None, :, :]

    save_tensor_file(out_dir / EEG_FILE, eeg)
    save_tensor_file(out_dir / IMAGE_EMB_FILE, img_protos)
    save_tensor_file(out_dir / LABELS_FILE, labels.astype(np.float64))

    manifest = DatasetManifest(
        eeg_path=EEG_FILE,
        image_emb_path=IMAGE_EMB_FILE,
        labels_path=LABELS_FILE,
        train_classes=list(range(n_train_classes)),
        test_classes=list(range(n_train_classes, n_classes)),
        root=out_dir,
    )
    manifest.save(out_dir / MANIFEST_FILE)
    return manifest
