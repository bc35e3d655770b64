"""The GAN-family baselines and the full bidirectional Wasserstein model,
each trained by the one split driver (standalone, one monitor) under its
own objective, so detection quality can be compared on identical data,
seeds and protocol.

Baselines whose critic reads windows only are scored by the critic
confidence term alone; bidirectional variants use the full weighted
anomaly score.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import autodiff as ad
from .detection import ScoredSample, score_windows
from .federation import TopologySpec, TrainingConfig, run_training
from .models import OBJECTIVES, ModelConfig, get_objective

ALL_VARIANTS = tuple(OBJECTIVES)


class VariantBundle:
    def __init__(self, variant, generator, encoder, critic, model_cfg):
        self.variant = variant
        self.generator = generator
        self.encoder = encoder
        self.critic = critic
        self.model_cfg = model_cfg

    def score(self, windows, gamma, labels=None, faults=None) -> list[ScoredSample]:
        """score_windows for the bidirectional variants; the critic-only
        ones are scored by the critic confidence term alone."""
        x = np.asarray(windows, dtype=np.float64)
        if self.encoder is not None:
            return score_windows(x, self.generator, self.encoder, self.critic, gamma,
                                 labels=labels, faults=faults)
        n = x.shape[0]
        raw = self.critic.raw_output(ad.tensor(x.reshape(n, -1))).data[:, 0]
        l_disc = np.logaddexp(0.0, -raw)
        return [
            ScoredSample(window_id=i, score=float(l_disc[i]),
                         reconstruction_term=0.0, discriminator_term=float(l_disc[i]),
                         true_label=None if labels is None else int(labels[i]),
                         fault=None if faults is None else faults[i])
            for i in range(n)
        ]


def train_variant(variant, train_windows, model_cfg: ModelConfig, cfg: TrainingConfig,
                  seed) -> VariantBundle:
    """Train one variant on pooled windows [num, t, features]: a
    standalone 1x1 run_training under the variant's objective. The minimax
    variants get a sigmoid head and the other baselines a linear one;
    biwgan_gp keeps model_cfg as given."""
    objective = get_objective(variant)
    arch = model_cfg
    if variant != "biwgan_gp":
        arch = replace(model_cfg,
                       head_mode="sigmoid" if objective.value == "minimax" else "linear")
    result = run_training(TopologySpec(1, 1), replace(cfg, mode="standalone"), arch,
                          {(0, 0): np.asarray(train_windows)}, seed, variant)
    g, e, d = result.bundle_for(0, 0)
    return VariantBundle(variant, g, e if objective.joint else None, d, arch)
