"""Single-node training drivers for the GAN-family baselines and the full
bidirectional Wasserstein model, so detection quality can be compared on
identical data and seeds.

Baselines without an encoder are scored by the critic confidence term
alone; bidirectional variants use the full weighted anomaly score.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .detection import ScoredSample, score_windows
from .federation import TopologySpec, TrainingConfig, run_training
from .models import (
    BASELINE_VARIANTS,
    CriticModel,
    GeneratorModel,
    EncoderModel,
    JointPair,
    ModelConfig,
    NoiseSpec,
    baseline_loss,
)
from .nn import AdamState, adam_step

ALL_VARIANTS = BASELINE_VARIANTS + ("biwgan_gp",)
DEFAULT_CLIP = 0.01


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
                  seed, clip=DEFAULT_CLIP) -> VariantBundle:
    """Train one variant on pooled windows [num, t, features]."""
    if variant not in ALL_VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; valid variants are {', '.join(ALL_VARIANTS)}"
        )
    if variant == "biwgan_gp":
        topo = TopologySpec(1, 1)
        run_cfg = TrainingConfig(
            mode="standalone", iterations=cfg.iterations, critic_iters=cfg.critic_iters,
            local_iters=cfg.local_iters, batch_size=cfg.batch_size, eta=cfg.eta,
            adam=cfg.adam, noise=cfg.noise,
        )
        result = run_training(topo, run_cfg, model_cfg, {(0, 0): np.asarray(train_windows)}, seed)
        g, e, d = result.bundle_for(0, 0)
        return VariantBundle(variant, g, e, d, model_cfg)

    windows = np.asarray(train_windows, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 505]))
    data_dim = model_cfg.window * model_cfg.features
    paired = variant == "bigan"
    head = "sigmoid" if variant in ("gan", "bigan") else "linear"
    arch = ModelConfig(
        features=model_cfg.features, window=model_cfg.window,
        latent_dim=model_cfg.latent_dim, gen_hidden=model_cfg.gen_hidden,
        critic_hidden=model_cfg.critic_hidden, head_mode=head,
    )
    generator = GeneratorModel(arch, rng)
    encoder = EncoderModel(arch, rng) if paired else None
    critic = CriticModel(arch, rng, input_dim=arch.pair_dim if paired else data_dim)
    noise = NoiseSpec(cfg.noise, arch.latent_dim)
    d_adam = AdamState.for_params(critic.params())
    g_adam = AdamState.for_params(generator.params())
    e_adam = AdamState.for_params(encoder.params()) if paired else None
    ascend_d = variant in ("gan", "bigan")  # probability critics maximize their value

    for _ in range(cfg.iterations):
        for _ in range(cfg.critic_iters):
            real_np = windows[rng.integers(0, windows.shape[0], cfg.batch_size)]
            z = noise.sample(rng, cfg.batch_size)
            fake_np = generator(ad.tensor(z)).data
            if paired:
                real = JointPair(real_np, encoder(ad.tensor(real_np)).data, "real")
                fake = JointPair(fake_np, z, "fake")
            else:
                real, fake = real_np, fake_np
            eps = rng.uniform(0.0, 1.0, cfg.batch_size) if variant == "wgan_gp" else None
            loss = baseline_loss(variant, critic, real, fake, eps=eps, eta=cfg.eta)
            grads = (
                {k: -g for k, g in loss.d_grads.items()} if ascend_d else loss.d_grads
            )
            adam_step(critic.params(), grads, d_adam, cfg.adam)
            if variant == "wgan":
                for p in critic.params().values():
                    np.clip(p.data, -clip, clip, out=p.data)

        # one generator (and encoder) step per outer iteration
        real_np = windows[rng.integers(0, windows.shape[0], cfg.batch_size)]
        z = noise.sample(rng, cfg.batch_size)
        z_t = ad.tensor(z)
        fake_t = generator(z_t)
        if paired:
            real_t = ad.tensor(real_np)
            f_t = encoder(real_t)
            real = JointPair(real_np, f_t.data, "real")
            fake = JointPair(fake_t.data, z, "fake")
        else:
            real, fake = real_np, fake_t.data
        loss = baseline_loss(variant, critic, real, fake, eta=cfg.eta,
                             eps=rng.uniform(0.0, 1.0, cfg.batch_size)
                             if variant == "wgan_gp" else None)
        cot_fake = loss.ge_input_grads["fake"][:, :data_dim].reshape(
            cfg.batch_size, arch.window, arch.features
        )
        g_params = generator.params()
        g_names = list(g_params)
        g_grads = ad.grad(fake_t, [g_params[k] for k in g_names], out_grad=cot_fake)
        adam_step(g_params, {k: g.data for k, g in zip(g_names, g_grads)}, g_adam, cfg.adam)
        if paired:
            cot_f = loss.ge_input_grads["real"][:, data_dim:]
            e_params = encoder.params()
            e_names = list(e_params)
            e_grads = ad.grad(f_t, [e_params[k] for k in e_names], out_grad=cot_f)
            adam_step(e_params, {k: g.data for k, g in zip(e_names, e_grads)}, e_adam, cfg.adam)

    return VariantBundle(variant, generator, encoder, critic, arch)
