"""Property tests for the four input parsers: any byte or JSON mutation of a
valid input gives a typed error or a valid object, never another exception.

The parsers are the QTNS record reader (``load_tensor_file``, and
``_read_records`` for any record count), ``load_params``,
``DatasetManifest.load`` and ``RunConfig.from_dict``; the whole restore path
``RetrievalModel.from_saved`` is driven the same way.  Example counts and
seeds come from the ``tier1`` profile in ``conftest.py``.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vqcontrast import RetrievalModel, RunConfig, load_params, load_tensor_file, save_params
from vqcontrast.data import DatasetManifest
from vqcontrast.errors import ConfigurationError, NumericError
from vqcontrast.qtns import _read_records, tensor_record_bytes

TYPED = (ConfigurationError, NumericError)
# a QTNS parse error names the byte offset where the file went wrong
FORMAT_REFUSAL = re.compile(r".+ \(byte offset \d+\)")

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


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One directory for every example: each overwrites the files it reads."""
    return tmp_path_factory.mktemp("parsers")


@st.composite
def containers(draw) -> bytes:
    """Arbitrary bytes, or records back to back, perhaps mutated."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    blob = b"".join(map(tensor_record_bytes, draw(st.lists(arrays, max_size=3))))
    return draw(mutated(blob)) if draw(st.booleans()) else blob


@given(blob=containers(), count=st.integers(0, 4))
def test_read_records_on_arbitrary_bytes(scratch, blob, count):
    path = scratch / "container.qtns"
    path.write_bytes(blob)
    try:
        arrays = _read_records(path, count)
    except ConfigurationError as exc:
        assert FORMAT_REFUSAL.fullmatch(str(exc)), exc
        return
    # the records that parse fill the file exactly
    assert len(arrays) == count and all(array.dtype == np.float32 for array in arrays)
    assert len(blob) == sum(13 + 4 * array.ndim + 4 * array.size for array in arrays)


@st.composite
def tensor_files(draw) -> bytes:
    """A record, mutated or followed by trailing bytes."""
    record = tensor_record_bytes(draw(arrays))
    if draw(st.booleans()):
        return draw(mutated(record))
    return record + draw(st.binary(min_size=1, max_size=8))


@given(blob=tensor_files())
def test_load_tensor_file_on_mutated_files(scratch, blob):
    path = scratch / "tensor.qtns"
    path.write_bytes(blob)
    try:
        array = load_tensor_file(path)
    except ConfigurationError as exc:
        assert FORMAT_REFUSAL.fullmatch(str(exc)), exc
        return
    # a file that parses is exactly the record its header announces
    assert array.dtype == np.float32
    assert len(blob) == 13 + 4 * array.ndim + 4 * array.size


@given(data=st.data())
def test_load_params_on_mutated_files(scratch, data):
    names = data.draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3,
                               unique=True))
    path = scratch / "model.params"
    save_params(path, {name: data.draw(arrays) for name in names})
    path.write_bytes(data.draw(mutated(path.read_bytes())))
    try:
        state = load_params(path, names)
    except TYPED:
        return
    assert sorted(state) == sorted(names)
    assert all(isinstance(v, np.ndarray) and v.dtype == np.float64 for v in state.values())


TINY = RunConfig(n_qubits=2, n_layers=1, electrodes=3, time_samples=16, spatial_maps=2,
                 temporal_maps=2, temporal_kernel=4, embed_dim=4, image_dim=6)
TINY_SHAPES = {name: value.shape for name, value
               in RetrievalModel(TINY, np.random.default_rng(0)).named_state().items()}


@given(data=st.data())
def test_from_saved_on_mutated_files(scratch, data):
    path = scratch / "tiny.params"
    RetrievalModel(TINY, np.random.default_rng(0)).save(path)
    path.write_bytes(data.draw(mutated(path.read_bytes())))
    try:
        model = RetrievalModel.from_saved(TINY, path)
    except TYPED:
        return
    state = model.named_state()
    assert {name: value.shape for name, value in state.items()} == TINY_SHAPES
    assert all(np.isfinite(value).all() for value in state.values())


MANIFEST = {"train_classes": [0, 1], "test_classes": [2, 3]}


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


@pytest.mark.parametrize("load", [RunConfig.load, DatasetManifest.load],
                         ids=["config", "manifest"])
def test_deeply_nested_json_raises_the_readers_typed_error(tmp_path, load):
    """``json`` recurses once per nesting level, so 100 000 ``[`` raise RecursionError."""
    path = tmp_path / "doc.json"
    path.write_bytes(b"[" * 100_000)
    with pytest.raises(ConfigurationError, match="recursion"):
        load(path)
