"""Three-tier split training: critic rounds on VM monitors, error-feedback
driven generator/encoder updates on slice managers, and weighted parameter
averaging on the network controller.

All randomness derives from the run seed through fixed SeedSequence
entropy tuples, so every mode is bit-reproducible and the mode lattice
holds: federated with one slice and L=1 equals distributed with one
slice, and distributed with one monitor equals standalone training.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import wire
from .ledger import CostLedger, PhaseTimer
from .models import (
    BIWGAN_GP,
    WEIGHT_CLIP,
    CriticModel,
    EncoderModel,
    GeneratorModel,
    ModelConfig,
    NoiseSpec,
    Objective,
    critic_loss,
    eg_local_loss,
    error_feedbacks,
    get_objective,
    pair_rows,
)
from .nn import AdamConfig, AdamState, adam_step

MODES = ("centralized", "standalone", "distributed", "federated")

# seed-derivation tags (arbitrary distinct constants)
_SEED_GLOBAL_MODELS = 101
_SEED_CRITIC = 202
_SEED_MONITOR_STREAM = 303
_SEED_NOISE = 404


class ProtocolError(RuntimeError):
    pass


class NonFiniteError(ProtocolError):
    """A NaN or infinity reached a node boundary during training."""


def _require_finite(arrays, what, iteration, node):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NonFiniteError(f"non-finite {what} at iteration {iteration} on {node}")


def _require_finite_members(arrays, monitors, what, iteration):
    """_require_finite over a bank's stacked [N, ...] arrays, naming the
    first monitor whose slice [n] is not finite."""
    if all(np.all(np.isfinite(a)) for a in arrays):
        return
    for n, mon in enumerate(monitors):
        _require_finite([a[n] for a in arrays], what, iteration,
                        f"monitor[{mon.slice_id}.{mon.monitor_id}]")


@dataclass
class TopologySpec:
    slices: int = 1
    monitors_per_slice: int = 1

    def __post_init__(self):
        if self.slices < 1 or self.monitors_per_slice < 1:
            raise ValueError("topology needs at least one slice and one monitor")


@dataclass
class TrainingConfig:
    mode: str = "federated"
    iterations: int = 500
    critic_iters: int = 5
    local_iters: int = 10
    batch_size: int = 64
    eta: float = 10.0
    adam: AdamConfig = field(default_factory=AdamConfig)
    noise: str = "normal"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; valid modes are {', '.join(MODES)}"
            )
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if min(self.critic_iters, self.local_iters, self.batch_size) < 1:
            raise ValueError("critic_iters, local_iters and batch_size must be >= 1")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        NoiseSpec(self.noise, latent_dim=0)  # checks the name; each manager sizes its prior


@dataclass
class GenPacket:
    slice_id: int
    monitor_id: int
    iteration: int
    latent_real: np.ndarray  # f_n = E(X_n), [M, latent]
    noise: np.ndarray  # z_n, [M, latent]
    fake_data: np.ndarray  # G(z_n), [M, t, features]

    def __post_init__(self):
        if not (len(self.latent_real) == len(self.noise) == len(self.fake_data)):
            raise ProtocolError("gen packet tensors must share batch size")


@dataclass
class FeedbackPacket:
    slice_id: int
    monitor_id: int
    iteration: int
    encoder_feedback: np.ndarray  # F_E, [M, t*features + latent]
    generator_feedback: np.ndarray  # F_G, same shape

    def __post_init__(self):
        if self.encoder_feedback.shape != self.generator_feedback.shape:
            raise ProtocolError("feedback tensors must share shape")
        _require_finite([self.encoder_feedback, self.generator_feedback], "error feedback",
                        self.iteration, f"monitor[{self.slice_id}.{self.monitor_id}]")


@dataclass
class SliceWeights:
    counts: list  # Q_s per slice, ascending slice id

    def __post_init__(self):
        if any(q < 0 for q in self.counts):
            raise ValueError("training-record counts must be non-negative")
        if sum(self.counts) <= 0:
            raise ValueError("total training-record count must be positive")

    @property
    def total(self):
        return sum(self.counts)


class Bus:
    """In-process transport: every send serializes the message for real so
    byte counts in the ledger are exact, then hands back the decoded copy."""

    def __init__(self, ledger: CostLedger):
        self.ledger = ledger

    def send(self, msg: wire.Message, link: str) -> wire.Message:
        encoded = wire.encode_message(msg)
        payload = wire.payload_bytes(msg.tensors)
        self.ledger.add_message(
            msg.iteration, link, wire.MSG_NAMES[msg.msg_type],
            payload, len(encoded) - payload,
        )
        return wire.decode_message(encoded)


# ---------------------------------------------------------------------------
# nodes


def _seeded_rng(*entropy):
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


class MonitorNode:
    """Hosts one critic and one training-data shard; the objective sets
    whether the critic reads whole pairs or windows only. Training steps
    the critic through its manager's CriticBank."""

    def __init__(self, slice_id, monitor_id, shard, model_cfg: ModelConfig,
                 cfg: TrainingConfig, seed, objective: Objective = BIWGAN_GP):
        self.slice_id = slice_id
        self.monitor_id = monitor_id
        self.shard = np.asarray(shard, dtype=np.float64)
        if self.shard.ndim != 3:
            raise ValueError("shard must be [windows, t, features]")
        self.objective = objective
        # canonical name so checkpoints reload into a fresh CriticModel
        self.critic = CriticModel(
            model_cfg, _seeded_rng(seed, _SEED_CRITIC, slice_id, monitor_id), objective
        )
        self.cfg = cfg
        self.stream = _seeded_rng(seed, _SEED_MONITOR_STREAM, slice_id, monitor_id)

    def sample_batch(self):
        idx = self.stream.integers(0, self.shard.shape[0], size=self.cfg.batch_size)
        return self.shard[idx]


class ManagerNode:
    """Hosts the slice's generator and encoder; under a window-only
    objective the encoder is never run."""

    def __init__(self, slice_id, model_cfg: ModelConfig, cfg: TrainingConfig, seed,
                 objective: Objective = BIWGAN_GP):
        self.slice_id = slice_id
        self.model_cfg = model_cfg
        self.cfg = cfg
        self.seed = seed
        self.objective = objective
        rng = _seeded_rng(seed, _SEED_GLOBAL_MODELS)
        self.generator = GeneratorModel(model_cfg, rng)
        self.encoder = EncoderModel(model_cfg, rng)
        self.gen_adam = AdamState.for_params(self.generator.params())
        self.enc_adam = AdamState.for_params(self.encoder.params())
        self.noise_spec = NoiseSpec(cfg.noise, model_cfg.latent_dim)
        self._tapes = None  # (encoder tape or None, generator tape, monitor -> row slice)


class CriticBank:
    """The critics of one manager's monitors stacked into one CriticModel
    with [N, out, in] weights and [N, 1, out] biases, stepped by one Adam
    state. Each monitor's critic parameters become [n] views of the stacked
    leaves, so the monitors keep their own parameters (and checkpoints)
    while one closed-form critic step serves all N of them."""

    def __init__(self, monitors):
        self.monitors = list(monitors)
        first = self.monitors[0]
        self.objective = first.objective
        self.cfg = first.cfg
        self.critic = copy.deepcopy(first.critic)
        members = [mon.critic.params() for mon in self.monitors]
        for name, p in self.critic.params().items():
            stacked = np.stack([params[name].data for params in members])
            p.data = stacked if stacked.ndim == 3 else stacked[:, None, :]
            for n, params in enumerate(members):
                params[name].data = p.data[n].reshape(params[name].data.shape)
        self.adam = AdamState.for_params(self.critic.params())


def monitor_round(bank: CriticBank, batches: dict, packets: dict, critic_iters, eta):
    """K critic Adam updates for every monitor of the bank on its received
    pairs under the bank's objective (a penalty draws each monitor's
    interpolation weights from that monitor's stream; clipping follows
    each step), then the local EG losses and per-example error feedbacks
    computed with the updated critics. Returns the feedback packets, last
    critic losses and EG losses, in monitor order."""
    monitors = bank.monitors
    xs = [batches[mon.monitor_id] for mon in monitors]
    pks = [packets[mon.monitor_id] for mon in monitors]
    m, iteration = len(xs[0]), pks[0].iteration
    for mon, x, pk in zip(monitors, xs, pks):
        if len(x) != m or len(pk.noise) != m:
            raise ProtocolError(
                f"batch size mismatch on monitor[{mon.slice_id}.{mon.monitor_id}]: "
                f"bank batch {m}, monitor batch {len(x)}, packet {len(pk.noise)}"
            )
    real = pair_rows(xs, [pk.latent_real for pk in pks])  # [N, M, pair_dim]
    fake = pair_rows([pk.fake_data for pk in pks], [pk.noise for pk in pks])
    _require_finite_members([real, fake], monitors, "critic input", iteration)
    objective = bank.objective
    params = bank.critic.params()
    last = None
    for _ in range(critic_iters):
        eps = None
        if objective.lipschitz == "penalty":
            eps = np.stack([mon.stream.uniform(0.0, 1.0, m) for mon in monitors])
        last = critic_loss(bank.critic, real, fake, eps, eta, objective)
        adam_step(params, last.param_grads, bank.adam, bank.cfg.adam)
        if objective.lipschitz == "clip":
            for p in params.values():
                np.clip(p.data, -WEIGHT_CLIP, WEIGHT_CLIP, out=p.data)
        _require_finite_members([p.data for p in params.values()], monitors,
                                "critic parameters", iteration)
    eg = eg_local_loss(bank.critic, real, fake, objective)
    f_e, f_g = error_feedbacks(bank.critic, real, fake, objective)
    feedbacks = [
        FeedbackPacket(mon.slice_id, mon.monitor_id, iteration, f_e[i], f_g[i])
        for i, mon in enumerate(monitors)
    ]
    return feedbacks, last.value, eg


def manager_generate(manager: ManagerNode, batches: dict, iteration) -> dict:
    """Encode the monitors' batches (for a joint critic) and generate fake
    windows from their noise streams, stacked in ascending monitor order
    into one encoder and one generator pass; keeps the forward tapes and
    each monitor's row range for the later chain-rule update."""
    if not batches:
        raise ProtocolError("no monitor batches received")
    manager._tapes = None
    ids = sorted(batches)
    xs, zs, rows, start = [], [], {}, 0
    for monitor_id in ids:
        x = np.asarray(batches[monitor_id], dtype=np.float64)
        if x.size == 0:
            raise ProtocolError(f"monitor {monitor_id} sent an empty batch")
        if xs and x.shape[1:] != xs[0].shape[1:]:
            raise ProtocolError(
                f"monitor {monitor_id} batch shape {x.shape} differs from "
                f"monitor {ids[0]}'s {xs[0].shape}"
            )
        _require_finite([x], f"batch from monitor[{manager.slice_id}.{monitor_id}]", iteration,
                        f"manager[{manager.slice_id}]")
        rng = _seeded_rng(manager.seed, _SEED_NOISE, manager.slice_id, iteration, monitor_id)
        xs.append(x)
        zs.append(manager.noise_spec.sample(rng, x.shape[0]))
        rows[monitor_id] = slice(start, start + x.shape[0])
        start += x.shape[0]
    x = np.concatenate(xs)
    if manager.objective.joint:
        latent, enc_tape = manager.encoder(x, keep=True)
    else:
        # the critic reads windows only: a zero latent of the encoder's
        # shape keeps the packets, and so the wire bytes, the same
        latent, enc_tape = np.zeros((len(x), manager.model_cfg.latent_dim)), None
    fake, gen_tape = manager.generator(np.concatenate(zs), keep=True)
    manager._tapes = (enc_tape, gen_tape, rows)
    return {
        monitor_id: GenPacket(
            slice_id=manager.slice_id,
            monitor_id=monitor_id,
            iteration=iteration,
            latent_real=latent[rows[monitor_id]],
            noise=z,
            fake_data=fake[rows[monitor_id]],
        )
        for monitor_id, z in zip(ids, zs)
    }


def assemble_manager_gradients(manager: ManagerNode, feedbacks: list[FeedbackPacket],
                               iteration):
    """Chain-rule the error feedbacks through the generation tapes into
    parameter gradients of the mean local EG loss over monitors: the
    monitors' cotangents are stacked in the tapes' row order, so each
    model takes one backward pass."""
    if manager._tapes is None:
        raise ProtocolError("no generation tapes: manager_generate has not run")
    enc_tape, gen_tape, rows = manager._tapes
    cfg = manager.model_cfg
    seen = {}
    for fb in feedbacks:
        if fb.iteration != iteration:
            raise ProtocolError(
                f"feedback from monitor {fb.monitor_id} is for iteration "
                f"{fb.iteration}, expected {iteration}"
            )
        if fb.monitor_id in seen:
            raise ProtocolError(f"duplicate feedback from monitor {fb.monitor_id}")
        if fb.monitor_id not in rows:
            raise ProtocolError(f"feedback from unknown monitor {fb.monitor_id}")
        expected = (rows[fb.monitor_id].stop - rows[fb.monitor_id].start, cfg.pair_dim)
        if fb.encoder_feedback.shape != expected:
            raise ProtocolError(
                f"feedback from monitor {fb.monitor_id} has shape "
                f"{fb.encoder_feedback.shape}, expected {expected}"
            )
        seen[fb.monitor_id] = fb
    missing = set(rows) - set(seen)
    if missing:
        raise ProtocolError(f"missing feedback from monitors {sorted(missing)}")

    n = len(seen)
    data_len = cfg.window * cfg.features
    # only the latent part of F_E reaches theta_E (the data part is the raw
    # input), and only the data part of F_G reaches theta_G
    cot_f = np.concatenate([seen[k].encoder_feedback[:, data_len:] / n for k in rows])
    cot_x = np.concatenate([seen[k].generator_feedback[:, :data_len] / n for k in rows])

    g_grads, e_grads = {}, {}
    manager.generator.backward(gen_tape, cot_x.reshape(-1, cfg.window, cfg.features), g_grads)
    if enc_tape is None:
        # the encoder did not run (window-only objective): its feedback
        # columns are zero, and so is its gradient
        e_grads = {k: np.zeros_like(p.data) for k, p in manager.encoder.params().items()}
    else:
        manager.encoder.backward(enc_tape, cot_f, e_grads)
    return g_grads, e_grads


def manager_update(manager: ManagerNode, feedbacks: list[FeedbackPacket], iteration):
    """Assemble gradients from all feedbacks and apply one Adam step to
    the generator and one to the encoder."""
    g_grads, e_grads = assemble_manager_gradients(manager, feedbacks, iteration)
    adam_step(manager.generator.params(), g_grads, manager.gen_adam, manager.cfg.adam)
    adam_step(manager.encoder.params(), e_grads, manager.enc_adam, manager.cfg.adam)
    manager._tapes = None


def controller_aggregate(param_sets: list[dict], weights: SliceWeights) -> dict:
    """Per-coordinate weighted average sum_s Q_s * theta_s / Q of each
    slice's decoded float64 parameter arrays, reduced in ascending slice
    order; equal weights reduce to the arithmetic mean exactly."""
    if len(param_sets) != len(weights.counts):
        raise ProtocolError("one parameter set per slice required")
    keys = list(param_sets[0])
    for ps in param_sets[1:]:
        if list(ps) != keys or any(
            np.shape(ps[k]) != np.shape(param_sets[0][k]) for k in keys
        ):
            raise ProtocolError("parameter sets are structurally different across slices")
    equal = len(set(weights.counts)) == 1
    out = {}
    for k in keys:
        if equal:
            acc = np.zeros_like(param_sets[0][k])
            for ps in param_sets:
                acc = acc + ps[k]
            out[k] = acc / len(param_sets)
        else:
            acc = np.zeros_like(param_sets[0][k])
            for q, ps in zip(weights.counts, param_sets):
                acc = acc + float(q) * ps[k]
            out[k] = acc / float(weights.total)
    return out


def apply_global(manager: ManagerNode, global_gen: dict, global_enc: dict):
    """Replace local parameter values with the global ones; Adam moments
    are retained so the next local step continues from the averaged
    parameters with the accumulated optimizer state."""
    for k, p in manager.generator.params().items():
        if global_gen[k].shape != p.data.shape:
            raise ProtocolError(f"global/generator shape mismatch at {k}")
        p.data[...] = global_gen[k]
    for k, p in manager.encoder.params().items():
        if global_enc[k].shape != p.data.shape:
            raise ProtocolError(f"global/encoder shape mismatch at {k}")
        p.data[...] = global_enc[k]


# ---------------------------------------------------------------------------
# training driver


@dataclass
class RunResult:
    mode: str
    model_cfg: ModelConfig
    managers: dict  # group key -> ManagerNode (slice id, or (slice, monitor))
    monitors: dict  # (slice, monitor) -> MonitorNode
    traces: list  # per (iteration, node): d_loss, eg_loss
    ledger: CostLedger

    def bundle_for(self, slice_id, monitor_id):
        """(generator, encoder, critic) used for detection on a monitor;
        the encoder is None under a window-only objective, so
        score_windows gives the critic-only score."""
        if self.mode == "centralized":
            # one pooled model serves every monitor
            slice_id, monitor_id = 0, 0
        key = (slice_id, monitor_id) if (slice_id, monitor_id) in self.managers else slice_id
        manager = self.managers[key]
        encoder = manager.encoder if manager.objective.joint else None
        return manager.generator, encoder, self.monitors[(slice_id, monitor_id)].critic


def _slice_iteration(manager, bank, bus, iteration, traces, ledger, node):
    """One pass of the split-training protocol for a single manager and
    its monitors' critic bank; with no bus, nothing is sent."""
    batches = {}
    for mon in bank.monitors:
        x = mon.sample_batch()
        if bus is not None:
            msg = bus.send(
                wire.Message(wire.MSG_DATA_BATCH, mon.slice_id, mon.monitor_id,
                             iteration, [x]),
                link=f"monitor[{mon.slice_id}.{mon.monitor_id}]->manager[{mon.slice_id}]",
            )
            x = msg.tensors[0]
        batches[mon.monitor_id] = x

    with PhaseTimer(ledger, "manager_generate"):
        packets = manager_generate(manager, batches, iteration)
    if bus is not None:
        for mon in bank.monitors:
            pk = packets[mon.monitor_id]
            msg = bus.send(
                wire.Message(wire.MSG_GEN_PACKET, pk.slice_id, pk.monitor_id, iteration,
                             [pk.latent_real, pk.noise, pk.fake_data]),
                link=f"manager[{pk.slice_id}]->monitor[{pk.slice_id}.{pk.monitor_id}]",
            )
            packets[mon.monitor_id] = GenPacket(
                pk.slice_id, pk.monitor_id, iteration, *msg.tensors
            )

    with PhaseTimer(ledger, "monitor_critic"):
        feedbacks, d_losses, eg_losses = monitor_round(
            bank, batches, packets, manager.cfg.critic_iters, manager.cfg.eta)
        if bus is not None:
            for i, fb in enumerate(feedbacks):
                msg = bus.send(
                    wire.Message(wire.MSG_FEEDBACK, fb.slice_id, fb.monitor_id, iteration,
                                 [fb.encoder_feedback, fb.generator_feedback]),
                    link=f"monitor[{fb.slice_id}.{fb.monitor_id}]->manager[{fb.slice_id}]",
                )
                feedbacks[i] = FeedbackPacket(fb.slice_id, fb.monitor_id, iteration,
                                              *msg.tensors)

    with PhaseTimer(ledger, "manager_update"):
        manager_update(manager, feedbacks, iteration)

    traces.append({
        "iteration": iteration,
        "node": node,
        "d_loss": float(np.mean(d_losses)),
        "eg_loss": float(np.mean(eg_losses)),
    })


def _group_monitors(topology, cfg, model_cfg, shards, seed, bus, objective):
    """The mode as a grouping of monitors under managers, key -> (manager,
    critic bank of its monitors): one group per slice (distributed,
    federated), a private manager per monitor (standalone), or one manager
    over the pooled shards after they are uploaded at iteration 0
    (centralized)."""
    cells = [(s, n) for s in range(topology.slices)
             for n in range(topology.monitors_per_slice)]

    def group(s, monitor_shards):
        return ManagerNode(s, model_cfg, cfg, seed, objective), CriticBank([
            MonitorNode(s, n, shard, model_cfg, cfg, seed, objective)
            for n, shard in monitor_shards
        ])

    if cfg.mode == "standalone":
        return {(s, n): group(s, [(n, shards[(s, n)])]) for s, n in cells}
    if cfg.mode == "centralized":
        # every monitor ships its whole shard up both tiers once
        pooled = []
        for s, n in cells:
            shard = np.asarray(shards[(s, n)], dtype=np.float64)
            bus.send(wire.Message(wire.MSG_DATA_BATCH, s, n, 0, [shard]),
                     link=f"monitor[{s}.{n}]->manager[{s}]")
            bus.send(wire.Message(wire.MSG_DATA_BATCH, s, -1, 0, [shard]),
                     link=f"manager[{s}]->controller")
            pooled.append(shard)
        return {(0, 0): group(0, [(0, np.concatenate(pooled, axis=0))])}
    return {
        s: group(s, [(n, shards[(s, n)]) for n in range(topology.monitors_per_slice)])
        for s in range(topology.slices)
    }


def _federated_average(groups, bus, iteration):
    """Upload every manager's generator and encoder, average them at the
    controller weighted by each slice's training windows, and download the
    average to every manager."""
    managers = [manager for manager, _ in groups]
    weights = SliceWeights([sum(mon.shard.shape[0] for mon in bank.monitors)
                            for _, bank in groups])
    gen_keys = sorted(managers[0].generator.params())
    enc_keys = sorted(managers[0].encoder.params())

    def split(tensors):
        return (dict(zip(gen_keys, tensors[:len(gen_keys)])),
                dict(zip(enc_keys, tensors[len(gen_keys):])))

    uploads = [
        split(bus.send(
            wire.Message(wire.MSG_PARAMS_UP, manager.slice_id, -1, iteration,
                         [manager.generator.params()[k].data for k in gen_keys]
                         + [manager.encoder.params()[k].data for k in enc_keys]),
            link=f"manager[{manager.slice_id}]->controller",
        ).tensors)
        for manager in managers
    ]
    global_gen = controller_aggregate([gen for gen, _ in uploads], weights)
    global_enc = controller_aggregate([enc for _, enc in uploads], weights)
    _require_finite([*global_gen.values(), *global_enc.values()], "global parameters",
                    iteration, "controller")
    for manager in managers:
        msg = bus.send(
            wire.Message(wire.MSG_PARAMS_DOWN, manager.slice_id, -1, iteration,
                         [global_gen[k] for k in gen_keys] + [global_enc[k] for k in enc_keys]),
            link=f"controller->manager[{manager.slice_id}]",
        )
        apply_global(manager, *split(msg.tensors))


def run_training(topology: TopologySpec, cfg: TrainingConfig, model_cfg: ModelConfig,
                 shards: dict, seed: int, objective="biwgan_gp") -> RunResult:
    """Train in the configured mode over per-monitor window shards
    (dict (slice, monitor) -> [windows, t, features]) under the named
    objective (models.OBJECTIVES)."""
    objective = get_objective(objective)
    for s in range(topology.slices):
        for n in range(topology.monitors_per_slice):
            if (s, n) not in shards:
                raise ValueError(f"no shard assigned to monitor ({s}, {n})")

    ledger = CostLedger()
    traces = []
    bus = Bus(ledger)
    groups = _group_monitors(topology, cfg, model_cfg, shards, seed, bus, objective)
    if cfg.mode in ("standalone", "centralized"):
        bus = None  # each manager trains on its own monitor: nothing to send

    for i in range(1, cfg.iterations + 1):
        for key, (manager, bank) in groups.items():
            node = f"{key[0]}.{key[1]}" if isinstance(key, tuple) else str(key)
            _slice_iteration(manager, bank, bus, i, traces, ledger, node)
        if cfg.mode == "federated" and i % cfg.local_iters == 0:
            with PhaseTimer(ledger, "aggregation"):
                _federated_average(list(groups.values()), bus, i)

    result = RunResult(
        mode=cfg.mode, model_cfg=model_cfg,
        managers={key: manager for key, (manager, _) in groups.items()},
        monitors={(mon.slice_id, mon.monitor_id): mon
                  for _, bank in groups.values() for mon in bank.monitors},
        traces=traces, ledger=ledger,
    )
    some_manager = next(iter(result.managers.values()))
    some_monitor = next(iter(result.monitors.values()))
    ledger.param_counts = {
        "generator": sum(p.data.size for p in some_manager.generator.params().values()),
        "encoder": sum(p.data.size for p in some_manager.encoder.params().values()),
        "critic": sum(p.data.size for p in some_monitor.critic.params().values()),
    }
    return result
