import math
from fractions import Fraction

import numpy as np
import pytest

from fedbiwgan import autodiff as ad
from fedbiwgan.detection import (
    ConfusionCounts,
    DetectionError,
    ScoredSample,
    calibrate_threshold,
    classify,
    classify_all,
    evaluate,
    metrics_from_counts,
    per_fault_recall,
    score_windows,
)
from fedbiwgan.models import CriticModel, EncoderModel, GeneratorModel, ModelConfig

CFG = ModelConfig(features=2, window=2, latent_dim=2,
                  gen_hidden=(3, 3), critic_hidden=(4, 3))


class _IdentityGen:
    """Reconstructs the window stored at construction, regardless of latent."""

    def __init__(self, x):
        self._x = np.asarray(x, dtype=np.float64)

    def __call__(self, z):
        return ad.tensor(self._x)


class _FixedCritic:
    def __init__(self, raw):
        self.raw = float(raw)

    def raw_output(self, u):
        n = u.data.shape[0]
        return ad.tensor(np.full((n, 1), self.raw))


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
    assert score_windows(np.zeros((0, 2, 2)), g, e, d, 0.5) == []


def _scored(scores, labels):
    return [ScoredSample(window_id=i, score=s, reconstruction_term=s,
                         discriminator_term=0.0, true_label=l)
            for i, (s, l) in enumerate(zip(scores, labels))]


def test_threshold_midpoint():
    th, mn, ma, degenerate = calibrate_threshold(
        _scored([0.2, 0.2, 0.8, 0.8], [0, 0, 1, 1]))
    assert th == pytest.approx(0.5)
    assert (mn, ma) == (pytest.approx(0.2), pytest.approx(0.8))
    assert not degenerate


def test_threshold_degenerate_flagged():
    th, _, _, degenerate = calibrate_threshold(_scored([0.4, 0.4], [0, 1]))
    assert th == pytest.approx(0.4)
    assert degenerate


def test_threshold_needs_both_classes():
    with pytest.raises(DetectionError):
        calibrate_threshold(_scored([0.1], [0]))
    with pytest.raises(DetectionError):
        calibrate_threshold(_scored([0.1], [1]))


def test_classify_strictly_greater():
    s = _scored([0.5], [0])[0]
    assert classify(s, 0.5) == "normal"
    s.score = np.nextafter(0.5, 1.0)
    assert classify(s, 0.5) == "abnormal"


def test_classify_all_preserves_order():
    scored = _scored([0.1, 0.9, 0.5], [0, 1, 0])
    out = classify_all(scored, 0.4)
    assert out is scored
    assert [s.predicted_label for s in out] == [0, 1, 1]


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
    scored = _scored([0.1, 0.9, 0.6, 0.2], [0, 1, 0, 1])
    classify_all(scored, 0.5)
    m = evaluate(scored)
    c = m["counts"]
    assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 1, 1)
    with pytest.raises(DetectionError):
        evaluate([])
    with pytest.raises(DetectionError):
        evaluate(_scored([0.1], [0]))  # not classified


def test_per_fault_recall():
    scored = _scored([0.9, 0.2, 0.8, 0.1], [1, 1, 1, 0])
    scored[0].fault = "memory_leak"
    scored[1].fault = "memory_leak"
    scored[2].fault = "disk_io_fault"
    classify_all(scored, 0.5)
    fr = per_fault_recall(scored)
    assert fr["memory_leak"].value == pytest.approx(0.5)
    assert fr["disk_io_fault"].value == pytest.approx(1.0)
