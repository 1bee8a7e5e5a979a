"""Synthetic paired EEG/image dataset and its on-disk manifest.

Each class owns a latent vector; fixed random linear maps turn it into an
EEG prototype and an image-embedding prototype, so the two modalities are
genuinely correlated and cross-modal retrieval is learnable.  Samples are
the class prototype plus Gaussian noise.  Everything is deterministic
given the seed, down to the bytes on disk.  The EEG tensor, (samples,
electrodes, time samples) and the largest object, is written
``_CHUNK_ROWS`` samples at a time and read in one piece.
Both float tensors stay float32 in memory, as stored; compute widens each
batch or block to float64 exactly (``diffnet.Tensor``), so nothing is
rounded and the resident copy is the size of the file.

The manifest is a small JSON file holding only the train/test class split.
The three tensor files sit beside it under the fixed names ``EEG_FILE``,
``IMAGE_EMB_FILE`` and ``LABELS_FILE``, so no manifest can name a file
elsewhere.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericError
from .qtns import load_tensor_file, read_json_object, save_tensor_file, tensor_header_bytes

_MANIFEST_KEYS = {"train_classes", "test_classes"}

EEG_FILE = "eeg.qtns"
IMAGE_EMB_FILE = "image_emb.qtns"
LABELS_FILE = "labels.qtns"
MANIFEST_FILE = "manifest.json"

_CHUNK_ROWS = 64  # EEG samples drawn and written at a time by generate_dataset
_FLOAT_MAX = float(np.finfo(np.float64).max)  # np.isfinite cannot take an int this large


def require_ints(least: int, **values) -> None:
    """Each value must be an int, not a bool, and at least ``least`` (0 or 1)."""
    kind = "positive" if least else "non-negative"
    for name, v in values.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            raise ConfigurationError(f"{name} must be a {kind} integer, got {v!r}")


def require_finite(**values) -> None:
    """Each value must be a finite real number, not a bool."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not (
            abs(v) <= _FLOAT_MAX if isinstance(v, int) else np.isfinite(v)
        ):
            raise ConfigurationError(f"{name} must be a finite number, got {v!r}")


def _class_ids(name: str, values) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 0
        for c in values
    ):
        raise ConfigurationError(
            f"{name} must be a list of non-negative integer class ids, got {values!r}"
        )
    if len(set(values)) != len(values):
        raise ConfigurationError(f"{name} repeats a class id: {list(values)}")
    return tuple(int(c) for c in values)


@dataclass(frozen=True)
class DatasetManifest:
    """The class split of the dataset in directory ``root``, checked once; the
    tensor files are read from their fixed names in ``root``.

    The fields cannot change after construction; ``dataclasses.replace``
    builds a checked copy.  ``load_arrays`` reads its three files once and
    later calls return the same read-only arrays.  A file changed on disk is
    not noticed; a fresh ``DatasetManifest.load`` reads it.  Copies and
    pickles leave the arrays behind.
    """

    train_classes: tuple[int, ...]
    test_classes: tuple[int, ...]
    root: Path = field(default_factory=Path, compare=False)
    _loaded: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("train_classes", "test_classes"):
            object.__setattr__(self, name, _class_ids(name, getattr(self, name)))
        if not isinstance(self.root, (str, os.PathLike)):
            raise ConfigurationError(f"root must be a path, got {type(self.root).__name__}")
        object.__setattr__(self, "root", Path(self.root))
        if not self.train_classes or not self.test_classes:
            raise ConfigurationError("both class splits must be non-empty")
        overlap = set(self.train_classes) & set(self.test_classes)
        if overlap:
            raise ConfigurationError(
                f"classes {sorted(overlap)} appear in both train and test splits"
            )

    def save(self) -> None:
        """Write the manifest into ``root``, beside the tensor files it describes."""
        doc = {key: getattr(self, key) for key in _MANIFEST_KEYS}
        (self.root / MANIFEST_FILE).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        path = Path(path)
        doc = read_json_object(path, "manifest")
        unknown = set(doc) - _MANIFEST_KEYS
        if unknown:
            raise ConfigurationError(f"unknown manifest keys: {sorted(unknown)}")
        missing = _MANIFEST_KEYS - set(doc)
        if missing:
            raise ConfigurationError(f"manifest missing keys: {sorted(missing)}")
        return cls(root=path.parent, **doc)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_loaded": None}

    def load_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (eeg [N,E,T] f32, image_emb [C,D_img] f32, labels [N] int), read-only."""
        if self._loaded is None:
            arrays = self._read_arrays()
            for array in arrays:
                array.flags.writeable = False
            object.__setattr__(self, "_loaded", arrays)
        return self._loaded

    def _read_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        eeg, emb, labels_f = (load_tensor_file(self.root / name)
                              for name in (EEG_FILE, IMAGE_EMB_FILE, LABELS_FILE))
        for name, array in ((EEG_FILE, eeg), (IMAGE_EMB_FILE, emb)):
            # min and max carry any NaN or inf (no tensor file is empty), and need no mask
            if not (np.isfinite(array.min()) and np.isfinite(array.max())):
                raise NumericError(f"{name} holds non-finite values")
        if eeg.ndim != 3:
            raise ConfigurationError(f"EEG tensor must be [N, E, T], got {eeg.shape}")
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
        if not set(np.unique(labels)) <= known:
            raise ConfigurationError("labels reference classes outside both splits")
        # training indexes the table by label, evaluation by every test class
        top = max(labels.max(), *self.test_classes)
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
    """Check the arguments as ``RunConfig`` does, then write the dataset into
    ``out_dir``.  An earlier manifest there is removed before any file is
    rewritten and the new one is written last, so a generation that fails
    part-way, such as on samples float32 cannot hold (``NumericError``),
    leaves no manifest."""
    require_ints(
        1, n_train_classes=n_train_classes, n_test_classes=n_test_classes,
        samples_per_class=samples_per_class, electrodes=electrodes,
        time_samples=time_samples, image_dim=image_dim, latent_dim=latent_dim,
    )
    require_ints(0, seed=seed)
    require_finite(noise_sigma=noise_sigma)
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
    (out_dir / MANIFEST_FILE).unlink(missing_ok=True)
    with open(out_dir / EEG_FILE, "wb") as f:
        f.write(tensor_header_bytes((n_samples, electrodes, time_samples)))
        for start in range(0, n_samples, _CHUNK_ROWS):  # draws in sequence: the one-shot draw
            rows = labels[start : start + _CHUNK_ROWS]
            eeg = rng.standard_normal((len(rows), electrodes, time_samples))
            eeg *= noise_sigma
            eeg += eeg_protos[rows]
            with np.errstate(over="ignore"):  # an overflow is refused below, as inf
                stored = eeg.astype("<f4")
            if not (np.isfinite(stored.min()) and np.isfinite(stored.max())):
                raise NumericError(
                    f"noise_sigma={noise_sigma!r} puts EEG samples outside float32"
                )
            stored.tofile(f)
    save_tensor_file(out_dir / IMAGE_EMB_FILE, img_protos)
    save_tensor_file(out_dir / LABELS_FILE, labels.astype(np.float64))

    manifest = DatasetManifest(
        train_classes=list(range(n_train_classes)),
        test_classes=list(range(n_train_classes, n_classes)),
        root=out_dir,
    )
    manifest.save()
    return manifest
