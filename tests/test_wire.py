import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedbiwgan.wire import (
    HEADER,
    MSG_FEEDBACK,
    MSG_GEN_PACKET,
    Message,
    WireError,
    decode_message,
    encode_message,
    overhead_bytes,
    payload_bytes,
)


def test_roundtrip_bitwise():
    rng = np.random.default_rng(0)
    tensors = [rng.standard_normal((3, 4)), rng.standard_normal(7),
               rng.standard_normal((2, 2, 2)), np.float64(rng.standard_normal()),
               np.zeros((0, 4)), rng.standard_normal((2, 3, 4))]
    msg = Message(MSG_GEN_PACKET, 1, 2, 42, tensors)
    encoded = encode_message(msg)
    out = decode_message(encoded)
    assert (out.msg_type, out.slice_id, out.monitor_id, out.iteration) == (
        MSG_GEN_PACKET, 1, 2, 42)
    assert len(out.tensors) == len(tensors)
    for a, b in zip(tensors, out.tensors):
        assert b.shape == np.shape(a) and b.dtype == np.float64
        assert b.tobytes() == np.asarray(a).tobytes()
    assert len(encoded) == payload_bytes(tensors) + overhead_bytes(tensors)


@settings(max_examples=25, deadline=None)
@given(arr=hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
                      elements=st.floats(width=64)))
def test_any_array_roundtrips_and_every_prefix_raises(arr):
    # 0-d and empty arrays, NaN and infinities included
    encoded = encode_message(Message(MSG_FEEDBACK, 0, 0, 0, [arr]))
    (out,) = decode_message(encoded).tensors
    assert out.shape == arr.shape and out.dtype == np.float64
    assert out.tobytes() == arr.tobytes()
    for cut in range(len(encoded)):
        with pytest.raises(WireError):
            decode_message(encoded[:cut])


def test_every_truncation_and_trailing_bytes_raise_wire_error():
    tensors = [np.float64(1.5), np.zeros((0, 2)), np.arange(6.0).reshape(2, 3)]
    encoded = encode_message(Message(MSG_FEEDBACK, 0, -1, 3, tensors))
    for cut in range(len(encoded)):
        with pytest.raises(WireError):
            decode_message(encoded[:cut])
    with pytest.raises(WireError, match="trailing"):
        decode_message(encoded + b"\x00")


def test_empty_shape_with_oversized_dims_raises_wire_error():
    for shape in ((0, 2**31, 2**31), (0,) * 70):
        body = (1).to_bytes(4, "little") + struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)
        with pytest.raises(WireError, match="shape"):
            decode_message(HEADER.pack(MSG_FEEDBACK, 0, 0, 0) + body)


def test_negative_monitor_id():
    msg = Message(MSG_FEEDBACK, 0, -1, 1, [np.zeros(1)])
    out = decode_message(encode_message(msg))
    assert out.monitor_id == -1


def test_payload_is_eight_bytes_per_float():
    tensors = [np.zeros((3, 4)), np.zeros(5)]
    assert payload_bytes(tensors) == 8 * 17


def test_overhead_accounts_header_and_shapes():
    tensors = [np.zeros((3, 4)), np.zeros(5)]
    msg = Message(MSG_FEEDBACK, 0, 0, 0, tensors)
    encoded = encode_message(msg)
    assert len(encoded) == payload_bytes(tensors) + overhead_bytes(tensors)
    assert HEADER.size == 16


def test_empty_tensor_list():
    out = decode_message(encode_message(Message(MSG_FEEDBACK, 0, 0, 0, [])))
    assert out.tensors == []


@pytest.mark.parametrize("header", [
    (MSG_FEEDBACK, 0, 0, -1),
    (MSG_FEEDBACK, 0, 0, 2**32),
    (-1, 0, 0, 0),
    (MSG_FEEDBACK, 2**31, 0, 0),
    (MSG_FEEDBACK, 0, -2**31 - 1, 0),
    (MSG_FEEDBACK, 0, 0, 1.5),
])
def test_header_out_of_range_raises_wire_error(header):
    with pytest.raises(WireError, match="header"):
        encode_message(Message(*header, [np.zeros(1)]))
