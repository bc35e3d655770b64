"""Tests of the benchmark's own helpers: the percentile rule, self time
on nested spans, reversible wrapping of fedbiwgan and the wire byte
closed form."""

import itertools

import numpy as np
import pytest

import run
from harness import (
    Tracer,
    digest,
    federated_bytes,
    highest_percentile,
    matches,
    patched,
    percentile,
)

assert run.load_package(), "fedbiwgan sources not found next to the benchmark"

from fedbiwgan.federation import TopologySpec, TrainingConfig, run_training  # noqa: E402
from fedbiwgan.models import ModelConfig  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_percentile_refuses_too_few_samples():
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)


def test_self_time_subtracts_direct_children():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf")

    def middle():
        leaf()
        leaf()

    mid = tracer.wrap(middle, "mid")
    root = tracer.wrap(lambda: mid(), "root")
    root()
    # ticks: root 0..7, mid 1..6, leaves 2..3 and 4..5
    assert [(s[0], s[1], s[2], s[3]) for s in tracer.spans] == [
        ("root", 0, 7, -1), ("mid", 1, 6, 0), ("leaf", 2, 3, 1), ("leaf", 4, 5, 1),
    ]
    assert tracer.self_times() == [2, 3, 1, 1]
    totals = tracer.totals("setup")
    assert totals["leaf"] == (2, 2, 2)
    assert totals["mid"] == (1, 5, 3)
    assert tracer.root_seconds("setup") == 7


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0][2] is not None
    assert tracer._stack == []


def _namespaces(targets):
    return [(owner, dict(vars(owner))) for owner, _, _ in targets]


def test_wrappers_restore_fedbiwgan_exactly():
    tracer = Tracer()
    targets = run.layer_targets(tracer)
    before = _namespaces(targets)
    with pytest.raises(KeyError):
        with patched(targets):
            for owner, attr, _ in targets:
                assert getattr(vars(owner)[attr], "__wrapped__", None) is not None
            raise KeyError("leave early")
    for owner, snapshot in before:
        now = vars(owner)
        assert now.keys() == snapshot.keys()
        assert all(now[k] is snapshot[k] for k in snapshot), owner


def test_wrapped_training_is_bitwise_unchanged():
    cfg = TrainingConfig(mode="federated", iterations=2, critic_iters=1, local_iters=1,
                         batch_size=3)
    model = ModelConfig(features=3, window=3, latent_dim=2, gen_hidden=(3, 3),
                        critic_hidden=(4, 3))
    rng = np.random.default_rng(0)
    shards = {(s, n): rng.standard_normal((6, 3, 3)) for s in range(2) for n in range(2)}
    topo = TopologySpec(2, 2)
    plain = run_training(topo, cfg, model, shards, seed=1)
    tracer = Tracer()
    with tracer.gc_watch(), patched(run.layer_targets(tracer)):
        traced = run_training(topo, cfg, model, shards, seed=1)
    assert plain.traces == traced.traces
    assert tracer.totals("setup")["federation.manager_generate"][0] == 4


@pytest.mark.parametrize("iterations, local_iters", [(4, 2), (5, 2), (3, 1)])
def test_byte_closed_form_matches_the_ledger(iterations, local_iters):
    cfg = TrainingConfig(mode="federated", iterations=iterations, critic_iters=1,
                         local_iters=local_iters, batch_size=3)
    model = ModelConfig(features=4, window=3, latent_dim=2, gen_hidden=(3, 2),
                        critic_hidden=(4, 3))
    rng = np.random.default_rng(0)
    shards = {(s, n): rng.standard_normal((6, 3, 4)) for s in range(2) for n in range(3)}
    result = run_training(TopologySpec(2, 3), cfg, model, shards, seed=0)
    sent = sum(r["payload_bytes"] + r["overhead_bytes"] for r in result.ledger.records)
    manager = result.managers[0]
    shapes = [p.data.shape for p in manager.generator.params().values()]
    shapes += [p.data.shape for p in manager.encoder.params().values()]
    assert sent == federated_bytes(2, 3, 3, 3, 4, 2, shapes, local_iters, iterations)


def test_digest_admits_drift_and_catches_a_change():
    rng = np.random.default_rng(3)
    params = [rng.standard_normal((40, 30)), rng.standard_normal(30)]
    ref = digest(params)
    drifted = [p * (1 + 1e-12) for p in params]
    changed = [params[0] * (1 + 1e-7), params[1]]
    assert matches(digest(drifted), ref, 1e-9)
    assert not matches(digest(changed), ref, 1e-9)
    assert not matches([np.nan] * len(ref), ref, 1e-9)
