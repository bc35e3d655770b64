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

from .detection import score_windows
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

    def score(self, windows, gamma) -> np.recarray:
        """score_windows on this variant's models."""
        return score_windows(windows, self.generator, self.encoder, self.critic, gamma)


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
