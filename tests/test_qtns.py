"""Binary tensor format: byte layout, round trips, and parse errors."""

import json
import struct

import numpy as np
import pytest

from vqcontrast import load_params, load_tensor_file, save_params, save_tensor_file
from vqcontrast.errors import TensorFormatError
from vqcontrast.qtns import read_tensor_record, tensor_record_bytes


def test_record_bytes_match_hand_built_layout():
    a = np.array([[1.0, 2.0], [3.0, -4.5]], dtype=np.float32)
    expected = (
        b"QTNS"
        + struct.pack("<I", 1)          # version
        + struct.pack("<B", 1)          # dtype code: float32
        + struct.pack("<I", 2)          # ndim
        + struct.pack("<II", 2, 2)      # dims
        + a.tobytes(order="C")
    )
    assert tensor_record_bytes(a) == expected


def test_float32_payload_round_trips_bit_exactly(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 5)).astype(np.float32)
    path = tmp_path / "t.qtns"
    save_tensor_file(path, a)
    back = load_tensor_file(path)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, a)


def test_zero_dim_tensor_round_trips(tmp_path):
    path = tmp_path / "scalar.qtns"
    save_tensor_file(path, np.array(2.5))
    back = load_tensor_file(path)
    assert back.shape == ()
    assert back == np.float32(2.5)


def test_float64_input_is_stored_as_float32(tmp_path):
    path = tmp_path / "t.qtns"
    save_tensor_file(path, np.array([1 / 3], dtype=np.float64))
    back = load_tensor_file(path)
    assert back.dtype == np.float32
    assert back[0] == np.float32(1 / 3)


def test_read_record_reports_end_offset():
    a = np.zeros((2, 3), dtype=np.float32)
    blob = tensor_record_bytes(a) + tensor_record_bytes(a)
    first, end = read_tensor_record(blob, 0)
    second, end2 = read_tensor_record(blob, end)
    assert end2 == len(blob)
    np.testing.assert_array_equal(first, second)


# ---------------------------------------------------------------------------
# Parse failures carry the byte offset


def expect_offset(blob, offset, match=None):
    with pytest.raises(TensorFormatError, match=match) as info:
        read_tensor_record(blob, 0)
    assert info.value.offset == offset
    assert f"byte offset {offset}" in str(info.value)
    return info.value


def test_bad_magic():
    expect_offset(b"NOPE" + b"\x00" * 20, 0, match="magic")


def test_truncated_header():
    blob = tensor_record_bytes(np.zeros(1, dtype=np.float32))[:6]
    expect_offset(blob, 4)


def test_unsupported_version():
    blob = b"QTNS" + struct.pack("<IB", 9, 1) + struct.pack("<I", 0)
    expect_offset(blob, 4, match="version")


def test_unsupported_dtype():
    blob = b"QTNS" + struct.pack("<IB", 1, 7) + struct.pack("<I", 0)
    expect_offset(blob, 8, match="dtype")


def test_excessive_ndim():
    blob = b"QTNS" + struct.pack("<IB", 1, 1) + struct.pack("<I", 9)
    expect_offset(blob, 9, match="ndim")


def test_truncated_dimension_list():
    blob = b"QTNS" + struct.pack("<IB", 1, 1) + struct.pack("<I", 2) + struct.pack("<I", 3)
    expect_offset(blob, 13)


def test_zero_length_dimension():
    blob = b"QTNS" + struct.pack("<IB", 1, 1) + struct.pack("<I", 2) + struct.pack("<II", 3, 0)
    expect_offset(blob, 17, match="zero")


def test_truncated_payload():
    blob = tensor_record_bytes(np.ones((2, 2), dtype=np.float32))[:-1]
    expect_offset(blob, 21, match="payload")


def test_trailing_bytes_rejected_for_single_tensor_file(tmp_path):
    path = tmp_path / "t.qtns"
    record = tensor_record_bytes(np.ones(2, dtype=np.float32))
    path.write_bytes(record + b"\x00")
    with pytest.raises(TensorFormatError, match="trailing"):
        load_tensor_file(path)


def test_offset_error_at_container_position():
    good = tensor_record_bytes(np.zeros(1, dtype=np.float32))
    blob = good + b"JUNK" + good
    with pytest.raises(TensorFormatError) as info:
        read_tensor_record(blob, len(good))
    assert info.value.offset == len(good)


# ---------------------------------------------------------------------------
# Named-parameter container


def test_params_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    named = {
        "weights": rng.standard_normal((3, 2)),
        "bias": rng.standard_normal(2),
        "scale": np.array(0.5),
    }
    path = tmp_path / "model.params"
    save_params(path, named)
    back = load_params(path)
    assert sorted(back) == sorted(named)
    for name in named:
        assert back[name].dtype == np.float64
        np.testing.assert_array_equal(
            back[name], named[name].astype(np.float32).astype(np.float64)
        )


def test_params_index_points_into_container(tmp_path):
    path = tmp_path / "model.params"
    save_params(path, {"a": np.zeros(1), "b": np.ones((2, 2))})
    index = json.loads(path.read_text())
    assert index["container"] == "model.params.qtns"
    blob = (tmp_path / index["container"]).read_bytes()
    for name, offset in index["tensors"].items():
        array, _ = read_tensor_record(blob, offset)
        assert array.size > 0, name


def test_params_index_rejects_bad_json(tmp_path):
    path = tmp_path / "model.params"
    path.write_text("{not json")
    with pytest.raises(TensorFormatError, match="JSON"):
        load_params(path)


def test_params_index_rejects_missing_keys(tmp_path):
    path = tmp_path / "model.params"
    path.write_text(json.dumps({"tensors": {}}))
    with pytest.raises(TensorFormatError):
        load_params(path)


def test_params_with_a_signaling_nan_load_as_nan_without_a_warning(tmp_path):
    # widening a float32 signaling NaN warns unless asked not to; the NaN
    # itself is refused later, by RetrievalModel.load_state
    path = tmp_path / "model.params"
    save_params(path, {"w": np.zeros(2)})
    container = tmp_path / "model.params.qtns"
    container.write_bytes(container.read_bytes()[:-4] + bytes.fromhex("0100807f"))
    loaded = load_params(path)["w"]
    assert loaded[0] == 0.0 and np.isnan(loaded[1])
