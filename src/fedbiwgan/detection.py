"""Anomaly scoring, threshold calibration, classification, and the
precision/recall/F1/accuracy metrics.

The score for a window X is A = gamma * L_rec + (1 - gamma) * L_disc with
L_rec = ‖X - G(E(X))‖₁ and L_disc the sigmoid cross-entropy of the
critic's raw output on the pair (X, E(X)) against target 1 (how confident
the critic is that the window is real).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .models import CriticModel, EncoderModel, GeneratorModel


class DetectionError(ValueError):
    pass


@dataclass
class ScoredSample:
    window_id: int
    score: float
    reconstruction_term: float
    discriminator_term: float
    true_label: int | None = None
    predicted_label: int | None = None
    fault: str | None = None


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


def score_windows(windows, g: GeneratorModel, e: EncoderModel, d: CriticModel,
                  gamma, labels=None, faults=None) -> list[ScoredSample]:
    """Score a batch of [n, t, features] windows in one forward pass."""
    if not (0.0 <= gamma <= 1.0):
        raise DetectionError("gamma must lie in [0, 1]")
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 3:
        raise DetectionError(f"expected [n, t, features] windows, got shape {x.shape}")
    n = x.shape[0]
    if n == 0:
        return []
    with ad.no_record():
        latent = e(ad.tensor(x)).data
        recon = g(ad.tensor(latent)).data
        flat = np.concatenate([x.reshape(n, -1), latent], axis=1)
        raw = d.raw_output(ad.tensor(flat)).data[:, 0]
    l_rec = np.abs(x - recon).reshape(n, -1).sum(axis=1)
    # cross-entropy against target 1: -log sigmoid(raw)
    l_disc = np.logaddexp(0.0, -raw)
    scores = gamma * l_rec + (1 - gamma) * l_disc
    out = []
    for i in range(n):
        out.append(ScoredSample(
            window_id=i,
            score=float(scores[i]),
            reconstruction_term=float(l_rec[i]),
            discriminator_term=float(l_disc[i]),
            true_label=None if labels is None else int(labels[i]),
            fault=None if faults is None else faults[i],
        ))
    return out


def calibrate_threshold(scored: list[ScoredSample]):
    """Midpoint of the mean normal score and the mean abnormal score.
    Returns (threshold, mean_normal, mean_abnormal, degenerate_flag)."""
    normal = [s.score for s in scored if s.true_label == 0]
    abnormal = [s.score for s in scored if s.true_label == 1]
    if not normal:
        raise DetectionError("calibration needs labeled-normal windows")
    if not abnormal:
        raise DetectionError("no injected anomalies in the calibration windows")
    mean_normal = float(np.mean(normal))
    mean_abnormal = float(np.mean(abnormal))
    threshold = (mean_normal + mean_abnormal) / 2.0
    return threshold, mean_normal, mean_abnormal, mean_normal == mean_abnormal


def classify(sample: ScoredSample, threshold) -> str:
    """Abnormal iff the score strictly exceeds the threshold."""
    sample.predicted_label = int(sample.score > threshold)
    return "abnormal" if sample.predicted_label else "normal"


def classify_all(scored, threshold):
    for s in scored:
        classify(s, threshold)
    return scored


@dataclass
class MetricValue:
    """A ratio that may be undefined (zero denominator) with a reason."""

    value: float | None
    reason: str | None = None

    @property
    def defined(self):
        return self.value is not None


def metrics_from_counts(c: ConfusionCounts) -> dict:
    precision = (
        MetricValue(c.tp / (c.tp + c.fp)) if c.tp + c.fp
        else MetricValue(None, "no predicted positives (TP + FP = 0)")
    )
    recall = (
        MetricValue(c.tp / (c.tp + c.fn)) if c.tp + c.fn
        else MetricValue(None, "no actual positives (TP + FN = 0)")
    )
    if precision.defined and recall.defined:
        # algebraically 2PR/(P+R); the single-division form keeps the float
        # value exactly equal to the rounded rational
        f1 = (
            MetricValue(2 * c.tp / (2 * c.tp + c.fp + c.fn)) if c.tp
            else MetricValue(None, "precision + recall = 0")
        )
    else:
        f1 = MetricValue(None, "precision or recall undefined")
    accuracy = (
        MetricValue((c.tp + c.tn) / c.total) if c.total
        else MetricValue(None, "no samples")
    )
    return {"precision": precision, "recall": recall, "f1": f1, "accuracy": accuracy}


def evaluate(scored: list[ScoredSample]) -> dict:
    """Confusion counts and the four ratios over classified, labeled samples."""
    if not scored:
        raise DetectionError("nothing to evaluate")
    counts = ConfusionCounts()
    for s in scored:
        if s.true_label is None or s.predicted_label is None:
            raise DetectionError("evaluate needs labeled, classified samples")
        if s.true_label == 1 and s.predicted_label == 1:
            counts.tp += 1
        elif s.true_label == 0 and s.predicted_label == 0:
            counts.tn += 1
        elif s.true_label == 0 and s.predicted_label == 1:
            counts.fp += 1
        else:
            counts.fn += 1
    result = metrics_from_counts(counts)
    result["counts"] = counts
    return result


def per_fault_recall(scored: list[ScoredSample]) -> dict:
    """Recall split by injected fault type (for injected test sets)."""
    out = {}
    faults = sorted({s.fault for s in scored if s.fault})
    for fault in faults:
        subset = [s for s in scored if s.fault == fault and s.true_label == 1]
        hit = sum(1 for s in subset if s.predicted_label == 1)
        out[fault] = MetricValue(hit / len(subset)) if subset else MetricValue(None, "no samples")
    return out


def threshold_sweep(scored: list[ScoredSample], grid) -> list[dict]:
    """Metrics at each threshold of a caller-supplied grid."""
    rows = []
    for th in grid:
        for s in scored:
            s.predicted_label = int(s.score > th)
        m = evaluate(scored)
        rows.append({
            "threshold": float(th),
            "precision": m["precision"].value,
            "recall": m["recall"].value,
            "f1": m["f1"].value,
            "accuracy": m["accuracy"].value,
        })
    return rows
