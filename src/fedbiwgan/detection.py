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

from .models import CriticModel, EncoderModel, GeneratorModel, pair_rows

# the row type of score_windows' record arrays
SCORE_DTYPE = np.dtype([(name, np.float64)
                       for name in ("score", "reconstruction_term", "discriminator_term")])


# rows per score_windows block: in a sweep of block sizes 128 to 1024 on
# 4096-window batches, 512 rows ran fastest, keeping each layer's working
# set near a core's L2 cache
_BLOCK = 512


class DetectionError(ValueError):
    pass


@dataclass
class DetectionConfig:
    """The `detection` config section: gamma weighs the reconstruction term."""

    gamma: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise DetectionError(f"detection.gamma must lie in [0, 1], got {self.gamma}")


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


def score_windows(windows, g: GeneratorModel, e: EncoderModel | None, d: CriticModel,
                  gamma) -> np.recarray:
    """Score a batch of [n, t, features] windows.

    The windows stream through encoder, generator and critic in blocks of
    _BLOCK rows; each block reduces its reconstruction term and critic
    output to one number per row before the next starts, so memory beyond
    the input and the [n] results stays bounded as n grows. Every row's
    arithmetic is independent of the others, so the blocks change no
    score. Returns an [n] record array of float64 fields score,
    reconstruction_term and discriminator_term. With e None the critic
    reads the window alone and the score is its confidence term alone.
    A NaN or infinite entry raises DetectionError naming the first such
    window, before any block is scored, and so does a non-finite model
    output, after the last block."""
    DetectionConfig(gamma)
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 3:
        raise DetectionError(f"expected [n, t, features] windows, got shape {x.shape}")
    n = x.shape[0]
    finite = np.isfinite(x).all(axis=(1, 2))
    if not finite.all():
        raise DetectionError(f"window {int(np.argmin(finite))} has a NaN or infinite entry")
    if n == 0:
        return np.rec.fromarrays([np.zeros(0)] * 3, dtype=SCORE_DTYPE)
    raw, l_rec = np.empty(n), np.zeros(n)
    # blocks start at multiples of _BLOCK, a multiple of every BLAS kernel's
    # row unroll, so each row meets the kernel path it meets in one
    # whole-batch product; a tail under half a block joins the block before
    # it, since one- and few-row products take other BLAS paths
    stops = [*range(_BLOCK, n - _BLOCK // 2 + 1, _BLOCK), n]
    for start, stop in zip([0, *stops], stops):
        block = x[start:stop]
        if e is None:
            raw[start:stop] = d.raw_output(block.reshape(stop - start, -1))[:, 0]
            continue
        latent, _ = e(block)
        recon, _ = g(latent)
        raw[start:stop] = d.raw_output(pair_rows(block, latent))[:, 0]
        l_rec[start:stop] = np.abs(block - recon).reshape(stop - start, -1).sum(axis=1)
    finite = np.isfinite(raw) & np.isfinite(l_rec)
    if not finite.all():
        raise DetectionError(f"window {int(np.argmin(finite))} scores non-finite: "
                             "the models' output is NaN or infinite")
    # cross-entropy against target 1: -log sigmoid(raw)
    l_disc = np.logaddexp(0.0, -raw)
    scores = l_disc if e is None else gamma * l_rec + (1 - gamma) * l_disc
    return np.rec.fromarrays([scores, l_rec, l_disc], dtype=SCORE_DTYPE)


def _paired(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise DetectionError(f"{what} must be two [n] arrays, got shapes {a.shape} and {b.shape}")
    return a, b


def calibrate_threshold(scores, labels):
    """Midpoint of the mean normal score and the mean abnormal score.
    Returns (threshold, mean_normal, mean_abnormal, degenerate_flag)."""
    scores, labels = _paired(scores, labels, "scores and labels")
    normal = scores[labels == 0]
    abnormal = scores[labels == 1]
    if not normal.size:
        raise DetectionError("calibration needs labeled-normal windows")
    if not abnormal.size:
        raise DetectionError("no injected anomalies in the calibration windows")
    mean_normal = float(np.mean(normal))
    mean_abnormal = float(np.mean(abnormal))
    threshold = (mean_normal + mean_abnormal) / 2.0
    return threshold, mean_normal, mean_abnormal, mean_normal == mean_abnormal


def classify(scores, threshold) -> np.ndarray:
    """[n] int labels: 1 (abnormal) iff the score strictly exceeds the
    threshold."""
    return (np.asarray(scores) > threshold).astype(np.int64)


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


def evaluate(labels, predicted) -> dict:
    """Confusion counts and the four ratios of [n] true and predicted
    labels."""
    labels, predicted = _paired(labels, predicted, "labels and predictions")
    if not labels.size:
        raise DetectionError("nothing to evaluate")
    normal, hit = labels == 0, predicted == 1
    tp = int(np.sum((labels == 1) & hit))
    tn = int(np.sum(normal & (predicted == 0)))
    fp = int(np.sum(normal & hit))
    counts = ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=labels.size - tp - tn - fp)
    result = metrics_from_counts(counts)
    result["counts"] = counts
    return result


def per_fault_recall(labels, predicted, faults) -> dict:
    """Recall split by injected fault type, from [n] true and predicted
    labels and fault names (None or "" on untouched windows)."""
    labels, predicted = _paired(labels, predicted, "labels and predictions")
    faults = np.asarray(faults, dtype=object)
    out = {}
    for fault in sorted({f for f in faults.tolist() if f}):
        subset = (faults == fault) & (labels == 1)
        total = int(np.sum(subset))
        out[fault] = (MetricValue(int(np.sum(subset & (predicted == 1))) / total) if total
                      else MetricValue(None, "no samples"))
    return out
