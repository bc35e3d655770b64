"""Bit-exact message serialization for the in-process bus, and the one
tensor codec that checkpoints share.

Layout (version 1, little-endian):
  16-byte header: u32 message type, i32 slice id, i32 monitor id
  (-1 when not applicable), u32 iteration.
  Body: u32 tensor count, then per tensor u32 ndim + u32 dims, followed
  by the raw float64 data.

Payload bytes are defined as 8 bytes per float; header and shape metadata
are accounted separately as overhead.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

HEADER = struct.Struct("<IiiI")
U32 = struct.Struct("<I")

MSG_DATA_BATCH = 1
MSG_GEN_PACKET = 2
MSG_FEEDBACK = 3
MSG_PARAMS_UP = 4
MSG_PARAMS_DOWN = 5

MSG_NAMES = {
    MSG_DATA_BATCH: "data_batch",
    MSG_GEN_PACKET: "gen_packet",
    MSG_FEEDBACK: "feedback",
    MSG_PARAMS_UP: "params_up",
    MSG_PARAMS_DOWN: "params_down",
}


class WireError(ValueError):
    """Bytes that do not decode (truncated, or with bytes left over), or a
    header that does not encode."""


@dataclass
class Message:
    msg_type: int
    slice_id: int
    monitor_id: int
    iteration: int
    tensors: list


def encode_tensor(t) -> bytes:
    """u32 ndim, u32 dims, then the float64 data in C order."""
    arr = np.asarray(t, dtype="<f8")
    return struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape) + arr.tobytes()


def read(buf, offset, n):
    """The n bytes at offset, and the offset just past them."""
    end = offset + n
    if end > len(buf):
        raise WireError(
            f"truncated: {n} bytes needed at offset {offset}, {max(len(buf) - offset, 0)} left"
        )
    return buf[offset:end], end


def read_u32(buf, offset):
    raw, offset = read(buf, offset, 4)
    return U32.unpack(raw)[0], offset


def decode_tensor(buf, offset):
    """The tensor encoded at offset, and the offset just past it."""
    ndim, offset = read_u32(buf, offset)
    dims, offset = read(buf, offset, 4 * ndim)
    shape = struct.unpack(f"<{ndim}I", dims)
    size = math.prod(shape)
    _, end = read(buf, offset, 8 * size)
    try:  # an empty shape can hold dims no array can take
        arr = np.frombuffer(buf, dtype="<f8", count=size, offset=offset).reshape(shape)
    except ValueError as exc:
        raise WireError(f"shape {shape} does not make an array: {exc}") from None
    return arr.astype(np.float64), end


def encode_message(msg: Message) -> bytes:
    """WireError if a header field does not fit its u32/i32 slot."""
    try:
        header = HEADER.pack(msg.msg_type, msg.slice_id, msg.monitor_id, msg.iteration)
    except struct.error as exc:
        raise WireError(
            f"header (type {msg.msg_type!r}, slice {msg.slice_id!r}, monitor "
            f"{msg.monitor_id!r}, iteration {msg.iteration!r}) does not fit u32/i32/i32/u32: {exc}"
        ) from None
    parts = [header, U32.pack(len(msg.tensors))]
    parts.extend(encode_tensor(t) for t in msg.tensors)
    return b"".join(parts)


def decode_message(buf: bytes) -> Message:
    """Inverse of encode_message; WireError on truncation or trailing bytes."""
    header, offset = read(buf, 0, HEADER.size)
    count, offset = read_u32(buf, offset)
    tensors = []
    for _ in range(count):
        arr, offset = decode_tensor(buf, offset)
        tensors.append(arr)
    if offset != len(buf):
        raise WireError(f"{len(buf) - offset} trailing bytes after the last tensor")
    return Message(*HEADER.unpack(header), tensors)


def payload_bytes(tensors) -> int:
    """8 bytes per float, headers and shape metadata excluded."""
    return 8 * sum(int(np.asarray(t).size) for t in tensors)


def overhead_bytes(tensors) -> int:
    return HEADER.size + 4 + sum(4 + 4 * np.asarray(t).ndim for t in tensors)
