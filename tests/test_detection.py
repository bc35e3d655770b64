import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbiwgan.detection import (
    _BLOCK,
    ConfusionCounts,
    DetectionError,
    calibrate_threshold,
    classify,
    evaluate,
    metrics_from_counts,
    per_fault_recall,
    score_windows,
)
from fedbiwgan.models import (
    CriticModel,
    EncoderModel,
    GeneratorModel,
    ModelConfig,
    get_objective,
    pair_rows,
)

CFG = ModelConfig(features=2, window=2, latent_dim=2,
                  gen_hidden=(3, 3), critic_hidden=(4, 3))


class _IdentityGen:
    """Reconstructs the window stored at construction, regardless of latent."""

    def __init__(self, x):
        self._x = np.asarray(x, dtype=np.float64)

    def __call__(self, z):
        return self._x, None


class _FixedCritic:
    def __init__(self, raw):
        self.raw = float(raw)

    def raw_output(self, u):
        return np.full((len(u), 1), self.raw)


def _models(seed=0):
    rng = np.random.default_rng(seed)
    return GeneratorModel(CFG, rng), EncoderModel(CFG, rng), CriticModel(CFG, rng)


def test_score_gamma_one_perfect_reconstruction():
    x = np.random.default_rng(0).random((3, 2, 2))
    _, e, d = _models()
    scored = score_windows(x, _IdentityGen(x), e, d, gamma=1.0)
    for s in scored:
        assert s.score == pytest.approx(0.0, abs=1e-12)
        assert s.reconstruction_term == pytest.approx(0.0, abs=1e-12)


def test_score_gamma_zero_half_probability():
    # critic raw 0 -> probability 0.5 -> cross-entropy -log(0.5)
    x = np.random.default_rng(0).random((2, 2, 2))
    g, e, _ = _models()
    scored = score_windows(x, g, e, _FixedCritic(0.0), gamma=0.0)
    for s in scored:
        assert s.score == pytest.approx(-math.log(0.5), abs=1e-12)


def test_score_weighted_combination():
    # L_rec = 2 exactly, L_disc = -log(0.5): A = 0.5*2 + 0.5*0.6931
    x = np.zeros((1, 2, 2))
    recon = np.full((1, 2, 2), 0.5)
    _, e, _ = _models()
    scored = score_windows(x, _IdentityGen(recon), e, _FixedCritic(0.0), gamma=0.5)
    assert scored[0].reconstruction_term == pytest.approx(2.0, abs=1e-12)
    assert scored[0].score == pytest.approx(0.5 * 2.0 + 0.5 * (-math.log(0.5)), abs=1e-12)


def test_score_validation():
    g, e, d = _models()
    with pytest.raises(DetectionError):
        score_windows(np.zeros((1, 2, 2)), g, e, d, gamma=2.0)
    with pytest.raises(DetectionError):
        score_windows(np.zeros((2, 2)), g, e, d, gamma=0.5)
    empty = score_windows(np.zeros((0, 2, 2)), g, e, d, 0.5)
    assert empty.shape == (0,)
    assert empty.dtype.names == ("score", "reconstruction_term", "discriminator_term")
    assert all(empty.dtype[name] == np.float64 for name in empty.dtype.names)


def test_score_rows_read_like_columns():
    # the row-wise reading perfbench makes of every timed call
    x = np.random.default_rng(1).random((5, 2, 2))
    out = score_windows(x, *_models(), gamma=0.9)
    rows = np.array([[s.score, s.reconstruction_term, s.discriminator_term] for s in out])
    columns = np.column_stack([out.score, out.reconstruction_term, out.discriminator_term])
    assert rows.dtype == columns.dtype == np.float64
    assert rows.tobytes() == columns.tobytes()


def _one_shot(x, g, e, d, gamma):
    """The three score fields from one pass over all rows at once."""
    n = x.shape[0]
    if e is None:
        raw = d.raw_output(x.reshape(n, -1))[:, 0]
        l_rec = np.zeros(n)
    else:
        latent, _ = e(x)
        recon, _ = g(latent)
        raw = d.raw_output(pair_rows(x, latent))[:, 0]
        l_rec = np.abs(x - recon).reshape(n, -1).sum(axis=1)
    l_disc = np.logaddexp(0.0, -raw)
    score = l_disc if e is None else gamma * l_rec + (1 - gamma) * l_disc
    return score, l_rec, l_disc


@pytest.mark.parametrize("cfg", [ModelConfig(), CFG], ids=["default", "small"])
@pytest.mark.parametrize("joint", [True, False], ids=["joint", "critic_only"])
def test_blocked_scores_equal_one_pass(cfg, joint):
    rng = np.random.default_rng(5)
    g, e = GeneratorModel(cfg, rng), EncoderModel(cfg, rng)
    d = CriticModel(cfg, rng, objective=get_objective("biwgan_gp" if joint else "wgan"))
    e = e if joint else None
    pool = np.random.default_rng(6).random((3 * _BLOCK + 1, cfg.window, cfg.features)) * 2 - 0.5
    for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1):
        x = pool[:n]
        out = score_windows(x, g, e, d, 0.7)
        score, l_rec, l_disc = _one_shot(x, g, e, d, 0.7)
        np.testing.assert_array_equal(out.score, score)
        np.testing.assert_array_equal(out.reconstruction_term, l_rec)
        np.testing.assert_array_equal(out.discriminator_term, l_disc)


def _traced_peak(x, models):
    tracemalloc.start()
    try:
        score_windows(x, *models, gamma=0.9)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_score_memory_does_not_grow_with_the_batch():
    cfg = ModelConfig()
    rng = np.random.default_rng(0)
    models = GeneratorModel(cfg, rng), EncoderModel(cfg, rng), CriticModel(cfg, rng)
    x = np.random.default_rng(1).random((8 * _BLOCK, cfg.window, cfg.features))
    one_block = _traced_peak(x[:_BLOCK], models)
    assert _traced_peak(x, models) <= 1.5 * one_block


def test_score_non_finite_window_named_before_scoring():
    x = np.random.default_rng(2).random((_BLOCK + 3, 2, 2))
    x[-1, 1, 0] = np.nan
    calls = []

    class _CountingEncoder:
        def __call__(self, u):
            calls.append(len(u))
            return np.zeros((len(u), CFG.latent_dim)), None

    g, _, d = _models()
    with pytest.raises(DetectionError, match=f"window {_BLOCK + 2} "):
        score_windows(x, g, _CountingEncoder(), d, 0.9)
    assert calls == []
    x[-1, 1, 0] = -np.inf
    with pytest.raises(DetectionError, match=f"window {_BLOCK + 2} "):
        score_windows(x, g, None, d, 0.9)


def test_score_non_finite_model_output_named():
    # a NaN weight poisons every window's latent; a reconstruction poisoned
    # in one row past the first _BLOCK names that row
    x = np.random.default_rng(3).random((_BLOCK + 9, 2, 2))
    g, e, d = _models()
    e.head.weights[0, 0] = np.nan
    with pytest.raises(DetectionError, match="window 0 scores non-finite"):
        score_windows(x, g, e, d, 0.9)
    recon = x.copy()
    recon[_BLOCK + 5, 0, 1] = np.inf
    _, e, _ = _models()
    with pytest.raises(DetectionError, match=f"window {_BLOCK + 5} scores non-finite"):
        score_windows(x, _IdentityGen(recon), e, d, 0.9)


def test_threshold_midpoint():
    th, mn, ma, degenerate = calibrate_threshold([0.2, 0.2, 0.8, 0.8], [0, 0, 1, 1])
    assert th == pytest.approx(0.5)
    assert (mn, ma) == (pytest.approx(0.2), pytest.approx(0.8))
    assert not degenerate


def test_threshold_degenerate_flagged():
    th, _, _, degenerate = calibrate_threshold([0.4, 0.4], [0, 1])
    assert th == pytest.approx(0.4)
    assert degenerate


def test_threshold_needs_both_classes():
    with pytest.raises(DetectionError):
        calibrate_threshold([0.1], [0])
    with pytest.raises(DetectionError):
        calibrate_threshold([0.1], [1])


def test_classify_strictly_greater():
    assert classify([0.5], 0.5).tolist() == [0]
    assert classify([np.nextafter(0.5, 1.0)], 0.5).tolist() == [1]


def test_classify_all_preserves_order():
    scores = np.array([0.1, 0.9, 0.5])
    out = classify(scores, 0.4)
    assert out.tolist() == [0, 1, 1]
    assert out.shape == scores.shape
    assert scores.tolist() == [0.1, 0.9, 0.5]


def test_metrics_pinned_table():
    m = metrics_from_counts(ConfusionCounts(tp=90, fp=10, fn=10, tn=890))
    assert m["precision"].value == pytest.approx(0.9)
    assert m["recall"].value == pytest.approx(0.9)
    assert m["f1"].value == pytest.approx(0.9)
    assert m["accuracy"].value == pytest.approx(0.98)


def test_metrics_perfect():
    m = metrics_from_counts(ConfusionCounts(tp=5, tn=5))
    assert all(m[k].value == 1.0 for k in ("precision", "recall", "f1", "accuracy"))


def test_metrics_undefined_reasons():
    m = metrics_from_counts(ConfusionCounts(tn=10, fn=2))
    assert not m["precision"].defined and "TP + FP" in m["precision"].reason
    m = metrics_from_counts(ConfusionCounts(tn=10, fp=2))
    assert not m["recall"].defined
    m = metrics_from_counts(ConfusionCounts(fp=3, fn=4))
    assert not m["f1"].defined


def test_f1_harmonic_identity_random_tables():
    rng = np.random.default_rng(12)
    for _ in range(100):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, 4))
        m = metrics_from_counts(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn))
        if not (m["precision"].defined and m["recall"].defined and m["f1"].defined):
            continue
        p = Fraction(tp, tp + fp)
        r = Fraction(tp, tp + fn)
        harmonic = 2 * p * r / (p + r)
        assert m["f1"].value == float(harmonic)
        assert m["precision"].value == float(p)
        assert m["recall"].value == float(r)


def test_evaluate_counts_and_errors():
    labels = [0, 1, 0, 1]
    m = evaluate(labels, classify([0.1, 0.9, 0.6, 0.2], 0.5))
    c = m["counts"]
    assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 1, 1)
    with pytest.raises(DetectionError):
        evaluate([], [])
    with pytest.raises(DetectionError):
        evaluate([0, 1], [0])  # labels and predictions differ in length


def test_per_fault_recall():
    labels = [1, 1, 1, 0]
    faults = ["memory_leak", "memory_leak", "disk_io_fault", None]
    fr = per_fault_recall(labels, classify([0.9, 0.2, 0.8, 0.1], 0.5), faults)
    assert fr["memory_leak"].value == pytest.approx(0.5)
    assert fr["disk_io_fault"].value == pytest.approx(1.0)


def _reference_metrics(scores, labels, faults, threshold):
    """The per-window loops the array metrics replace."""
    predicted = [int(score > threshold) for score in scores]
    counts = ConfusionCounts()
    for label, pred in zip(labels, predicted):
        if label == 1 and pred == 1:
            counts.tp += 1
        elif label == 0 and pred == 0:
            counts.tn += 1
        elif label == 0 and pred == 1:
            counts.fp += 1
        else:
            counts.fn += 1
    recall = {}
    for fault in sorted({f for f in faults if f}):
        hits = [p for p, l, f in zip(predicted, labels, faults) if f == fault and l == 1]
        recall[fault] = sum(hits) / len(hits) if hits else None
    return predicted, counts, recall


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                          st.sampled_from([None, "memory_leak", "disk_io_fault"])),
                min_size=2, max_size=40))
def test_array_metrics_match_a_per_window_loop(windows):
    scores = np.array([score for score, _ in windows])
    faults = np.array([fault for _, fault in windows], dtype=object)
    labels = np.array([int(fault is not None) for fault in faults])
    labels[0], labels[1] = 0, 1  # both classes, so calibration is defined
    normal = [s for s, l in zip(scores, labels) if l == 0]
    abnormal = [s for s, l in zip(scores, labels) if l == 1]
    mean_normal, mean_abnormal = float(np.mean(normal)), float(np.mean(abnormal))
    threshold = (mean_normal + mean_abnormal) / 2.0
    assert calibrate_threshold(scores, labels) == (
        threshold, mean_normal, mean_abnormal, mean_normal == mean_abnormal)

    # on the grid of scores, the threshold is often a score itself
    for th in (threshold, *scores[:3]):
        predicted, counts, recall = _reference_metrics(scores, labels, faults, th)
        assert classify(scores, th).tolist() == predicted
        assert evaluate(labels, classify(scores, th))["counts"] == counts
        got = per_fault_recall(labels, classify(scores, th), faults)
        assert {k: v.value for k, v in got.items()} == recall
