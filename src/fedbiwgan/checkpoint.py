"""Self-describing binary container for model parameters and window
stores: a magic/version header and the CRC-32 of the body, then the body:
a JSON metadata block and per-tensor name records, each followed by the
tensor in the wire codec. Byte-identical across platforms (everything
little-endian, dict keys sorted).
"""

from __future__ import annotations

import dataclasses
import json
import zlib

from . import wire
from .models import ModelConfig

MAGIC = b"FBWGCKPT"
FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def save_container(path, metadata: dict, tensors: dict):
    """Write tensors (name -> array) with a JSON metadata block."""
    meta = json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [wire.U32.pack(len(meta)), meta, wire.U32.pack(len(tensors))]
    for name in sorted(tensors):
        encoded = name.encode("utf-8")
        parts += [wire.U32.pack(len(encoded)), encoded, wire.encode_tensor(tensors[name])]
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(MAGIC + wire.U32.pack(FORMAT_VERSION) + wire.U32.pack(zlib.crc32(body)) + body)


def load_container(path):
    """Read back (metadata, tensors); CheckpointError if the file is not a
    whole container."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint container")
    try:
        version, offset = wire.read_u32(buf, 8)
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        checksum, offset = wire.read_u32(buf, offset)
        body = memoryview(buf)[offset:]
        meta_len, offset = wire.read_u32(buf, offset)
        meta, offset = wire.read(buf, offset, meta_len)
        metadata = json.loads(meta.decode("utf-8"))
        if not isinstance(metadata, dict):
            raise CheckpointError(f"{path}: metadata block is not a JSON object")
        count, offset = wire.read_u32(buf, offset)
        tensors = {}
        for _ in range(count):
            name_len, offset = wire.read_u32(buf, offset)
            name, offset = wire.read(buf, offset, name_len)
            tensors[name.decode("utf-8")], offset = wire.decode_tensor(buf, offset)
        if offset != len(buf):
            raise CheckpointError(f"{path}: {len(buf) - offset} trailing bytes")
        if zlib.crc32(body) != checksum:
            raise CheckpointError(f"{path}: corrupt checkpoint: checksum mismatch")
    except (wire.WireError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc}") from None
    return metadata, tensors


# ---------------------------------------------------------------------------
# model bundles


def save_models(path, model_cfg, models: dict, extra_meta=None):
    """Persist named models; each contributes its params under a prefix."""
    tensors = {}
    for prefix, model in models.items():
        for name, p in model.params().items():
            tensors[f"{prefix}:{name}"] = p
    meta = {"model_config": dataclasses.asdict(model_cfg), "models": sorted(models)}
    meta.update(extra_meta or {})
    save_container(path, meta, tensors)


def load_models(path, builders):
    """Rebuild models from a bundle; builders maps prefix -> callable(cfg)
    returning a freshly initialized model whose params get overwritten."""
    metadata, tensors = load_container(path)
    cfg_dict, prefixes = metadata.get("model_config"), metadata.get("models")
    if not isinstance(prefixes, list) or not all(isinstance(m, str) for m in prefixes):
        raise CheckpointError(f"{path}: metadata needs a 'models' list of names")
    fields = sorted(f.name for f in dataclasses.fields(ModelConfig))
    if not isinstance(cfg_dict, dict) or sorted(cfg_dict) != fields:
        raise CheckpointError(
            f"{path}: metadata needs a 'model_config' object with the fields {fields}, "
            f"got {cfg_dict!r}"
        )
    try:
        cfg = ModelConfig(**cfg_dict)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad model_config: {exc}") from None
    models = {}
    for prefix in prefixes:
        if prefix not in builders:
            raise CheckpointError(f"{path}: no builder for model {prefix!r}")
        model = builders[prefix](cfg)
        for name, p in model.params().items():
            key = f"{prefix}:{name}"
            if key not in tensors:
                raise CheckpointError(f"{path}: missing tensor {key}")
            if tensors[key].shape != p.shape:
                raise CheckpointError(f"{path}: shape mismatch for {key}")
            p[...] = tensors[key]
        models[prefix] = model
    return metadata, cfg, models
