import hashlib
import tempfile
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedbiwgan.checkpoint import (
    CheckpointError,
    load_container,
    load_models,
    save_container,
    save_models,
)
from fedbiwgan.models import CriticModel, EncoderModel, GeneratorModel, ModelConfig

CFG = ModelConfig(features=3, window=3, latent_dim=2,
                  gen_hidden=(3, 3), critic_hidden=(4, 3))

BUILDERS = {
    "generator": lambda cfg: GeneratorModel(cfg, np.random.default_rng(0)),
    "encoder": lambda cfg: EncoderModel(cfg, np.random.default_rng(0)),
    "critic": lambda cfg: CriticModel(cfg, np.random.default_rng(0)),
}


def test_container_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5),
               "scalar": np.float64(rng.standard_normal()), "empty": np.zeros((0, 4)),
               "cube": rng.standard_normal((2, 3, 4))}
    path = tmp_path / "c.ckpt"
    save_container(path, {"kind": "test", "n": 3}, tensors)
    meta, loaded = load_container(path)
    assert meta == {"kind": "test", "n": 3}
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert loaded[k].shape == np.shape(tensors[k])
        assert loaded[k].tobytes() == np.asarray(tensors[k]).tobytes()


@settings(max_examples=25, deadline=None)
@given(tensors=st.dictionaries(
    st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=8),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
               elements=st.floats(width=64)),
    max_size=4,
))
def test_container_roundtrip_property(tensors):
    # any name -> float64 array dict, NaN and infinities included, comes
    # back bit for bit
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ckpt"
        save_container(path, {"n": len(tensors)}, tensors)
        meta, loaded = load_container(path)
    assert meta == {"n": len(tensors)}
    assert sorted(loaded) == sorted(tensors)
    for name, arr in tensors.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def test_container_every_truncation_raises_checkpoint_error(tmp_path):
    path = tmp_path / "c.ckpt"
    save_container(path, {"k": 1}, {"s": np.float64(2.0), "v": np.arange(3.0)})
    whole = path.read_bytes()
    for cut in range(len(whole)):
        path.write_bytes(whole[:cut])
        with pytest.raises(CheckpointError):
            load_container(path)
    path.write_bytes(whole + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_container(path)


def _sealed(header, body):
    """A container from a magic/version header and a body, with the body's
    checksum between them."""
    return header + zlib.crc32(body).to_bytes(4, "little") + body


def test_container_bad_metadata_block(tmp_path):
    path = tmp_path / "c.ckpt"
    save_container(path, {"k": 1}, {})
    whole = path.read_bytes()
    for block in (b'{"k":', b"[1,2]"):
        meta_len = len(b'{"k":1}')
        body = len(block).to_bytes(4, "little") + block + whole[20 + meta_len:]
        path.write_bytes(_sealed(whole[:12], body))
        with pytest.raises(CheckpointError, match="metadata|corrupt"):
            load_container(path)


def test_container_every_bit_flip_raises_checkpoint_error(tmp_path):
    path = tmp_path / "c.ckpt"
    save_container(path, {"k": 1}, {"s": np.float64(2.0), "v": np.arange(4.0)})
    whole = path.read_bytes()
    for bit in range(8 * len(whole)):
        flipped = bytearray(whole)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(flipped)
        with pytest.raises(CheckpointError):
            load_container(path)


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40),
                         st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6))


@settings(max_examples=60, deadline=None)
@given(metadata=st.dictionaries(st.text(max_size=6), _JSON_SCALARS, max_size=4),
       tensors=st.dictionaries(
           st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=6),
           hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                      elements=st.floats(width=64)),
           max_size=4),
       data=st.data())
def test_container_random_bit_flip_raises_checkpoint_error(metadata, tensors, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ckpt"
        save_container(path, metadata, tensors)
        flipped = bytearray(path.read_bytes())
        bit = data.draw(st.integers(0, 8 * len(flipped) - 1), label="bit")
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(flipped)
        with pytest.raises(CheckpointError):
            load_container(path)


def test_container_version_1_names_its_version(tmp_path):
    path = tmp_path / "c.ckpt"
    save_container(path, {"k": 1}, {"v": np.arange(4.0)})
    whole = path.read_bytes()
    # version 1 had no checksum: the body followed the version directly
    path.write_bytes(whole[:8] + (1).to_bytes(4, "little") + whole[16:])
    with pytest.raises(CheckpointError, match="version 1"):
        load_container(path)


def test_container_byte_identical(tmp_path):
    tensors = {"z": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_container(p1, {"x": 1}, tensors)
    save_container(p2, {"x": 1}, dict(reversed(list(tensors.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_container_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_container(path)


def test_model_bundle_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    models = {
        "generator": GeneratorModel(CFG, rng),
        "encoder": EncoderModel(CFG, rng),
        "critic": CriticModel(CFG, rng),
    }
    path = tmp_path / "m.ckpt"
    save_models(path, CFG, models, extra_meta={"tag": "t1"})
    meta, cfg, loaded = load_models(path, BUILDERS)
    assert meta["tag"] == "t1"
    assert cfg == CFG
    for prefix, model in models.items():
        for name, p in model.params().items():
            np.testing.assert_array_equal(p, loaded[prefix].params()[name])


def test_model_bundle_bytes_are_pinned(tmp_path):
    # the container's bytes for seeded models: a change to the format, the
    # parameter names or their order shows here
    rng = np.random.default_rng(7)
    models = {
        "generator": GeneratorModel(CFG, rng),
        "encoder": EncoderModel(CFG, rng),
        "critic": CriticModel(CFG, rng),
    }
    path = tmp_path / "m.ckpt"
    save_models(path, CFG, models, extra_meta={"tag": "t1"})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "cfaac593eecc4860e914ee10acca6bbdc40380cfcc7af7d1be664a2e3d615e83")


def test_model_bundle_missing_builder(tmp_path):
    path = tmp_path / "m.ckpt"
    save_models(path, CFG, {"critic": CriticModel(CFG, np.random.default_rng(0))})
    with pytest.raises(CheckpointError):
        load_models(path, {})


@pytest.mark.parametrize("meta", [
    {},
    {"models": ["critic"]},
    {"model_config": [], "models": []},
    {"model_config": {}, "models": []},
    {"model_config": {**asdict(CFG), "features": "x"}, "models": []},
    {"model_config": {**asdict(CFG), "gen_hidden": 5}, "models": []},
    {"model_config": {**asdict(CFG), "window": 0}, "models": []},
    {"model_config": {**asdict(CFG), "critic_hidden": [4, -3]}, "models": []},
    {"model_config": {**asdict(CFG), "extra": 1}, "models": []},
    {"model_config": asdict(CFG), "models": "critic"},
    # a checkpoint written while the critic head was a config key
    {"model_config": {**asdict(CFG), "head_mode": "linear"}, "models": []},
])
def test_model_bundle_bad_metadata_raises_checkpoint_error(tmp_path, meta):
    path = tmp_path / "m.ckpt"
    save_container(path, meta, {})
    with pytest.raises(CheckpointError):
        load_models(path, BUILDERS)
