"""Property tests for the four input parsers: any byte or JSON mutation of a
valid input gives a typed error or a valid object, never another exception.

The parsers are ``read_tensor_record``, ``load_params``,
``DatasetManifest.load`` and ``RunConfig.from_dict``.  The only other
exception allowed is ``OSError`` from ``load_params`` when the index names a
container that cannot be read.  Example counts and seeds come from the
``tier1`` profile in ``conftest.py``.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vqcontrast import RunConfig, load_params, save_params
from vqcontrast.data import DatasetManifest
from vqcontrast.errors import ConfigurationError, NumericError, ShapeError, TensorFormatError
from vqcontrast.qtns import read_tensor_record, tensor_record_bytes

TYPED = (ConfigurationError, NumericError, ShapeError, TensorFormatError)

json_values = st.recursive(
    # ints past 2**64 have no numpy dtype; st.integers() alone seldom draws them
    st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**1100) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

arrays = st.lists(st.integers(1, 3), min_size=0, max_size=3).flatmap(
    lambda shape: st.lists(
        st.floats(width=32), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
    ).map(lambda values: np.array(values, dtype=np.float32).reshape(shape))
)


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """``blob`` with a few bytes overwritten, deleted or inserted, or cut short."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["set", "delete", "insert", "truncate"]))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "set" and data:
            data[at] = draw(st.integers(0, 255))
        elif kind == "delete" and data:
            del data[at]
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        else:
            del data[at:]
    return bytes(data)


def _edit_json(draw, doc: dict) -> dict:
    """Replace, drop or add a few top-level keys of ``doc``."""
    doc = dict(doc)
    for _ in range(draw(st.integers(1, 3))):
        known = st.sampled_from(sorted(doc)) if doc else st.nothing()
        key = draw(known | st.text(max_size=6))
        if draw(st.booleans()):
            doc[key] = draw(json_values)
        else:
            doc.pop(key, None)
    return doc


@given(st.binary(max_size=64), st.integers(0, 72))
def test_read_tensor_record_on_arbitrary_bytes(blob, offset):
    try:
        array, end = read_tensor_record(blob, offset)
    except TensorFormatError:
        return
    assert offset < end <= len(blob) and array.dtype == np.float32


@given(arrays.flatmap(lambda a: mutated(tensor_record_bytes(a))))
def test_read_tensor_record_on_mutated_records(record):
    try:
        array, end = read_tensor_record(record, 0)
    except TensorFormatError:
        return
    # a record that parses holds the payload its header announces
    assert array.dtype == np.float32 and end <= len(record)
    assert end == 13 + 4 * array.ndim + 4 * array.size


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One directory for every example: each overwrites the files it reads."""
    return tmp_path_factory.mktemp("parsers")


@given(data=st.data())
def test_load_params_on_mutated_files(scratch, data):
    names = data.draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3,
                               unique=True))
    index, container = scratch / "model.params", scratch / "model.params.qtns"
    save_params(index, {name: data.draw(arrays) for name in names})
    target = data.draw(st.sampled_from(["index-json", "index-bytes", "container"]))
    if target == "index-json":
        index.write_text(json.dumps(_edit_json(data.draw, json.loads(index.read_text()))))
    elif target == "index-bytes":
        index.write_bytes(data.draw(mutated(index.read_bytes())))
    else:
        container.write_bytes(data.draw(mutated(container.read_bytes())))
    try:
        state = load_params(index)
    except (*TYPED, OSError):
        return
    assert all(isinstance(v, np.ndarray) and v.dtype == np.float64 for v in state.values())


MANIFEST = {
    "eeg_path": "eeg.qtns", "image_emb_path": "image_emb.qtns",
    "labels_path": "labels.qtns", "train_classes": [0, 1], "test_classes": [2, 3],
}


@st.composite
def manifest_texts(draw):
    if draw(st.booleans()):
        return draw(mutated(json.dumps(MANIFEST).encode()))
    return json.dumps(_edit_json(draw, MANIFEST)).encode()


@given(text=manifest_texts())
def test_manifest_load_on_mutated_documents(scratch, text):
    path = scratch / "manifest.json"
    path.write_bytes(text)
    try:
        manifest = DatasetManifest.load(path)
    except TYPED:
        return
    assert manifest.train_classes and manifest.test_classes
    assert not set(manifest.train_classes) & set(manifest.test_classes)


CONFIG = RunConfig().to_dict()


@st.composite
def config_docs(draw):
    return _edit_json(draw, CONFIG)


@given(config_docs() | json_values)
def test_run_config_from_dict_on_edited_documents(doc):
    try:
        config = RunConfig.from_dict(doc)
    except TYPED:
        return
    assert RunConfig.from_dict(config.to_dict()) == config


@given(text=mutated(json.dumps(CONFIG).encode()))
def test_run_config_load_on_mutated_bytes(scratch, text):
    path = scratch / "config.json"
    path.write_bytes(text)
    try:
        RunConfig.load(path)
    except TYPED:
        pass
