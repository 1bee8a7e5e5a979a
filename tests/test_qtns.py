"""Binary tensor format: byte layout, round trips, and parse errors."""

import struct

import types

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given

from vqcontrast import load_params, load_tensor_file, qtns, save_params, save_tensor_file
from vqcontrast.errors import ConfigurationError
from vqcontrast.qtns import tensor_header_bytes, tensor_record_bytes


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


def test_read_record_reports_end_offset(tmp_path):
    """Records are read back to back; a byte after the last one asked for is
    refused at that record's end."""
    a = np.zeros((2, 3), dtype=np.float32)
    b = np.arange(4, dtype=np.float32)
    path = tmp_path / "two.qtns"
    path.write_bytes(tensor_record_bytes(a) + tensor_record_bytes(b))
    first, second = qtns._read_records(path, 2)
    np.testing.assert_array_equal(first, a)
    np.testing.assert_array_equal(second, b)
    with pytest.raises(ConfigurationError, match="33 trailing bytes after record") as info:
        qtns._read_records(path, 1)
    assert str(info.value).endswith(f" (byte offset {len(tensor_record_bytes(a))})")


# ---------------------------------------------------------------------------
# Parse failures carry the byte offset


def expect_offset(tmp_path, blob, offset, match=None):
    path = tmp_path / "t.qtns"
    path.write_bytes(blob)
    with pytest.raises(ConfigurationError, match=match) as info:
        load_tensor_file(path)
    assert str(info.value).endswith(f" (byte offset {offset})")
    return info.value


def test_bad_magic(tmp_path):
    expect_offset(tmp_path, b"NOPE" + b"\x00" * 20, 0, match="magic")


def test_truncated_header(tmp_path):
    blob = tensor_record_bytes(np.zeros(1, dtype=np.float32))[:6]
    expect_offset(tmp_path, blob, 4)


def test_unsupported_version(tmp_path):
    blob = b"QTNS" + struct.pack("<IB", 9, 1) + struct.pack("<I", 0)
    expect_offset(tmp_path, blob, 4, match="version")


def test_unsupported_dtype(tmp_path):
    blob = b"QTNS" + struct.pack("<IB", 1, 7) + struct.pack("<I", 0)
    expect_offset(tmp_path, blob, 8, match="dtype")


def test_excessive_ndim(tmp_path):
    blob = b"QTNS" + struct.pack("<IB", 1, 1) + struct.pack("<I", 9)
    expect_offset(tmp_path, blob, 9, match="ndim")


def test_truncated_dimension_list(tmp_path):
    blob = b"QTNS" + struct.pack("<IB", 1, 1) + struct.pack("<I", 2) + struct.pack("<I", 3)
    expect_offset(tmp_path, blob, 13)


def test_zero_length_dimension(tmp_path):
    blob = b"QTNS" + struct.pack("<IB", 1, 1) + struct.pack("<I", 2) + struct.pack("<II", 3, 0)
    expect_offset(tmp_path, blob, 17, match="zero")


def test_truncated_payload(tmp_path):
    blob = tensor_record_bytes(np.ones((2, 2), dtype=np.float32))[:-1]
    expect_offset(tmp_path, blob, 21, match="payload")


def test_trailing_bytes_rejected_for_single_tensor_file(tmp_path):
    path = tmp_path / "t.qtns"
    record = tensor_record_bytes(np.ones(2, dtype=np.float32))
    path.write_bytes(record + b"\x00")
    with pytest.raises(ConfigurationError, match="trailing"):
        load_tensor_file(path)


def test_file_that_shrinks_after_its_size_is_read_is_a_truncated_payload(tmp_path,
                                                                        monkeypatch):
    path = tmp_path / "t.qtns"
    record = tensor_record_bytes(np.ones((2, 2), dtype=np.float32))
    path.write_bytes(record[:-4])
    # the size stat reports is the whole record's, as if the file was cut after fstat
    monkeypatch.setattr(qtns, "os", types.SimpleNamespace(
        fstat=lambda fd: types.SimpleNamespace(st_size=len(record))))
    with pytest.raises(ConfigurationError, match="payload needs 16 bytes, only 12") as info:
        load_tensor_file(path)
    assert str(info.value).endswith(" (byte offset 21)")


def test_offset_error_at_container_position(tmp_path):
    """Errors in a record after the first carry offsets in the container file."""
    good = tensor_record_bytes(np.zeros(1, dtype=np.float32))
    path = tmp_path / "model.params"
    bad_version = b"QTNS" + struct.pack("<IB", 9, 1) + struct.pack("<I", 0)
    for bad, match, at in ((b"JUNK", "magic", 0), (bad_version, "version", 4)):
        path.write_bytes(good + bad + good)
        with pytest.raises(ConfigurationError, match=match) as info:
            load_params(path, ["a", "b", "c"])
        assert str(info.value).endswith(f" (byte offset {len(good) + at})")


# ---------------------------------------------------------------------------
# Named-parameter container


def test_params_index_naming_a_missing_record_is_bad_magic(tmp_path):
    """Asking for one name more than the file holds reads past its last record."""
    path = tmp_path / "model.params"
    save_params(path, {"w": np.zeros(2)})
    with pytest.raises(ConfigurationError, match="magic") as info:
        load_params(path, ["w", "x"])
    assert str(info.value).endswith(f" (byte offset {path.stat().st_size})")


def test_params_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    named = {
        "weights": rng.standard_normal((3, 2)),
        "bias": rng.standard_normal(2),
        "scale": np.array(0.5),
    }
    path = tmp_path / "model.params"
    save_params(path, named)
    back = load_params(path, named)
    assert sorted(back) == sorted(named)
    for name in named:
        assert back[name].dtype == np.float64
        np.testing.assert_array_equal(
            back[name], named[name].astype(np.float32).astype(np.float64)
        )


def test_params_file_is_the_sorted_names_records_back_to_back(tmp_path):
    named = {"b": np.ones((2, 2)), "a": np.zeros(1)}
    path = tmp_path / "model.params"
    save_params(path, named)
    assert path.read_bytes() == tensor_record_bytes(named["a"]) + tensor_record_bytes(named["b"])
    assert [p.name for p in tmp_path.iterdir()] == ["model.params"]
    save_params(path, {})
    assert path.read_bytes() == b"" and load_params(path, []) == {}


def test_params_names_must_be_distinct(tmp_path):
    path = tmp_path / "model.params"
    save_params(path, {"a": np.zeros(1)})
    with pytest.raises(ConfigurationError, match="repeat"):
        load_params(path, ["a", "a"])


def test_params_with_a_signaling_nan_load_as_nan_without_a_warning(tmp_path):
    # widening a float32 signaling NaN warns unless asked not to; the NaN
    # itself is refused later, by RetrievalModel.from_saved
    path = tmp_path / "model.params"
    save_params(path, {"w": np.zeros(2)})
    path.write_bytes(path.read_bytes()[:-4] + bytes.fromhex("0100807f"))
    loaded = load_params(path, ["w"])["w"]
    assert loaded[0] == 0.0 and np.isnan(loaded[1])


# ---------------------------------------------------------------------------
# The writer refuses what the reader rejects


@pytest.mark.parametrize("shape, offset, match", [
    ((0, 3), 13, "zero-length dimension"),
    ((3, 2, 0), 21, "zero-length dimension"),
    ((1,) * 9, 9, "ndim 9 exceeds limit 8"),
])
def test_writer_refuses_a_shape_the_reader_rejects(tmp_path, shape, offset, match):
    with pytest.raises(ConfigurationError, match=match) as info:
        tensor_header_bytes(shape)
    assert str(info.value).endswith(f" (byte offset {offset})")
    with pytest.raises(ConfigurationError, match=match):
        save_tensor_file(tmp_path / "t.qtns", np.zeros(shape))
    with pytest.raises(ConfigurationError, match=match):
        save_params(tmp_path / "model.params", {"a": np.ones(2), "b": np.zeros(shape)})
    assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One directory for every example: each overwrites the file it reads."""
    return tmp_path_factory.mktemp("qtns")


@given(hnp.arrays(np.uint32, hnp.array_shapes(min_dims=0, max_dims=10, min_side=0,
                                              max_side=2)))
def test_every_array_the_writer_accepts_reads_back_bit_for_bit(scratch, bits):
    array = bits.view(np.float32)  # any bit pattern, signaling NaNs included
    try:
        record = tensor_record_bytes(array)
    except ConfigurationError:
        assert 0 in array.shape or array.ndim > 8
        return
    path = scratch / "t.qtns"
    path.write_bytes(record)
    back = load_tensor_file(path)
    assert back.dtype == np.float32 and back.shape == array.shape
    assert back.tobytes() == array.tobytes()
