"""Benchmark of fedbiwgan: federated training then streaming detection,
end to end (--trace 0) and per layer (--trace 1).

    python3 perfbench/run.py --workload fed-desk --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Each invocation runs one workload in its own process, a closed
loop with a single caller. The workloads and the predictions of which
layer metric moves which end-to-end metric are in `workloads.json`.

A run is a sequence of rounds, each of which does:
  * one set-up, reported as the median over rounds: config resolution,
    `build_node_data`, node construction (`train_experiment` with zero
    iterations) and generation of the detection input windows;
  * one `train_experiment` run of a fixed length; iteration boundaries
    are the first call into `federation.manager_generate` for each
    iteration number;
  * its slice of the `score_windows` calls on the trained slice-0 models
    at batch 1, then 64, then 4096.
The number of rounds and calls follows from --seconds, each phase's
share of it and nominal cost in `workloads.json`, and minimum counts
that keep the reported percentiles supported; a run at a given
--seconds always does the same work.

Every iteration and score call is checked: losses against the per-seed
references in `references.json` (finite values on seeds without one),
final parameters and the batch-4096 scores likewise, every smaller
batch against the batch-4096 scores of the same windows, and the bytes
sent against the closed form of the wire layout. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # pinned before numpy loads: one single-threaded process per workload
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from harness import (
    Tracer,
    digest,
    environment,
    federated_bytes,
    highest_percentile,
    matches,
    patched,
    percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
clock = time.perf_counter

fedbiwgan = None  # the package modules, imported by load_package()


def load_spec():
    """Workload parameters and predictions, from `workloads.json`."""
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def load_package():
    """Import fedbiwgan from the checkout's `src/`; False when absent."""
    global fedbiwgan
    src = ROOT / "src"
    if not (src / "fedbiwgan" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import fedbiwgan.autodiff
    import fedbiwgan.config
    import fedbiwgan.detection
    import fedbiwgan.experiment
    import fedbiwgan.federation
    import fedbiwgan.models
    import fedbiwgan.wire

    fedbiwgan = sys.modules["fedbiwgan"]
    return True


def layer_targets(tracer):
    """(owner, attribute, wrapper factory) for every traced layer, each
    patched where its callers look it up."""
    fb = fedbiwgan
    fed, models = fb.federation, fb.models

    def span(name):
        return lambda fn: tracer.wrap(fn, name)

    return [
        (fb.autodiff.Tensor, "__init__", lambda fn: tracer.counter(fn, "autodiff.nodes")),
        (fb.autodiff, "grad", span("autodiff.grad")),
        (fed, "critic_loss", span("models.critic_loss")),
        (fed, "eg_local_loss", span("models.eg_local_loss")),
        (fed, "error_feedbacks", span("models.error_feedbacks")),
        (models.EncoderModel, "__call__", span("models.encoder_fwd")),
        (models.GeneratorModel, "__call__", span("models.generator_fwd")),
        (models.CriticModel, "raw_output", span("models.critic_raw_output")),
        (fed, "adam_step", span("nn.adam_step")),
        (fed, "manager_generate", span("federation.manager_generate")),
        (fed, "monitor_round", span("federation.monitor_round")),
        (fed, "manager_update", span("federation.manager_update")),
        (fed, "assemble_manager_gradients", span("federation.assemble_manager_gradients")),
        (fed, "controller_aggregate", span("federation.controller_aggregate")),
        (fed, "apply_global", span("federation.apply_global")),
        (fed.Bus, "send", span("federation.bus_send")),
        (fb.wire, "encode_message", span("wire.encode_message")),
        (fb.wire, "decode_message", span("wire.decode_message")),
        (fb.detection, "score_windows", span("detection.score_windows")),
        (fb.experiment, "build_node_data", span("experiment.build_node_data")),
    ]


class Workload:
    """One workload at one seed: its inputs, checks and measurements."""

    def __init__(self, spec, name, seed, reference=None, log=sys.stderr):
        self.common = spec["common"]
        self.cfg = spec["workloads"][name]
        self.name = name
        self.seed = seed
        self.train_cfg = self.cfg["training"]
        self.reference = reference
        self.log = log
        self.iterations = self.train_cfg["iterations_per_run"]
        self.rtol = self.common["tolerance"]["reference_rtol"]
        self.attempted = 0
        self.failed = 0
        self.boundaries = {}
        self.tracer = None  # set during a traced pass

    # -- inputs ------------------------------------------------------------

    def experiment(self, iterations):
        t = self.train_cfg
        return fedbiwgan.config.resolve_experiment({
            "seed": self.seed,
            "topology": {"slices": t["slices"], "monitors_per_slice": t["monitors_per_slice"]},
            "training": {"mode": "federated", "iterations": iterations,
                         "critic_iters": t["critic_iters"], "local_iters": t["local_iters"],
                         "batch_size": t["batch_size"]},
            "model": {},
            "detection": {"gamma": self.common["detection"]["gamma"]},
            "data": dict(self.common["data"]),
        })

    def detection_pool(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        model = self.experiment(0).model
        return rng.standard_normal((self.common["detection"]["pool_windows"], model.window,
                                    model.features))

    def setup_once(self):
        """Seconds for everything before the first timed operation."""
        start = clock()
        exp = self.experiment(0)
        nodes = fedbiwgan.experiment.build_node_data(exp)
        fedbiwgan.experiment.train_experiment(exp, nodes)
        self.detection_pool()
        return clock() - start

    # -- training ----------------------------------------------------------

    def boundary_wrapper(self, fn):
        def manager_generate(manager, batches, iteration):
            if iteration not in self.boundaries:
                self.boundaries[iteration] = clock()
                if self.tracer is not None:
                    self.tracer.bucket = "train"
            return fn(manager, batches, iteration)

        return manager_generate

    def train_once(self):
        """One training run: (result, per-iteration seconds, run seconds),
        or None when it raised."""
        exp = self.experiment(self.iterations)
        nodes = fedbiwgan.experiment.build_node_data(exp)
        self.boundaries = {}
        self.attempted += self.iterations
        start = clock()
        try:
            result, _ = fedbiwgan.experiment.train_experiment(exp, nodes)
        except Exception:
            traceback.print_exc(file=self.log)
            self.failed += self.iterations
            return None
        end = clock()
        marks = [self.boundaries[i] for i in range(1, self.iterations + 1)] + [end]
        self.failed += self.check_training(exp, result)
        return result, list(np.diff(marks)), end - start

    def trace_rows(self, result):
        rows = {}
        for rec in result.traces:
            rows.setdefault(rec["iteration"], []).extend([rec["d_loss"], rec["eg_loss"]])
        return [rows[i] for i in range(1, self.iterations + 1)]

    def final_params(self, result):
        out = []
        for key in sorted(result.managers):
            m = result.managers[key]
            for params in (m.generator.params(), m.encoder.params()):
                out.extend(params[k].data for k in sorted(params))
        return out

    def check_training(self, exp, result):
        """Number of failed iterations of one training run."""
        rows = self.trace_rows(result)
        ref = self.reference
        bad = 0
        for i, row in enumerate(rows):
            ok = bool(np.all(np.isfinite(row)))
            if ok and ref is not None:
                ok = matches(row, ref["trace"][i], self.rtol)
            bad += not ok
        params = self.final_params(result)
        whole_ok = all(np.all(np.isfinite(p)) for p in params)
        if whole_ok and ref is not None:
            whole_ok = matches(digest(params), ref["params"], self.rtol)
        sent = sum(r["payload_bytes"] + r["overhead_bytes"] for r in result.ledger.records)
        expected = self.expected_bytes(exp, result)
        if sent != expected:
            print(f"bytes sent {sent} != closed form {expected}", file=self.log)
            whole_ok = False
        if not whole_ok:
            print(f"{self.name} seed {self.seed}: final parameters or bytes failed the check",
                  file=self.log)
            return len(rows)
        if bad:
            print(f"{self.name} seed {self.seed}: {bad} iterations failed the loss check",
                  file=self.log)
        return bad

    def expected_bytes(self, exp, result):
        m = result.managers[0]
        shapes = [p.data.shape for p in m.generator.params().values()]
        shapes += [p.data.shape for p in m.encoder.params().values()]
        t = exp.training
        return federated_bytes(
            exp.topology.slices, exp.topology.monitors_per_slice, t.batch_size,
            exp.model.window, exp.model.features, exp.model.latent_dim, shapes,
            t.local_iters, t.iterations,
        )

    def counts(self, seconds, minimum):
        """Operations per phase: each phase's share of `seconds` at the
        workload's nominal cost per operation, at least `minimum`. Fixed
        counts make a run at given --seconds repeat the same work, so
        garbage collection and memory use repeat too."""
        nominal = self.cfg["nominal_ms"]
        out = {}
        for phase, share in self.cfg["shares"].items():
            key = "timed_iterations" if phase == "train" else f"{phase}_calls"
            out[phase] = max(minimum[key], round(share * seconds * 1e3 / nominal[phase]))
        warmup = self.common["warmup_iterations"]
        out["rounds"] = -(-(out.pop("train") + warmup) // self.iterations)
        return out

    # -- detection ---------------------------------------------------------

    def score(self, x, bundle):
        """(seconds, [n, 3] score, reconstruction and discriminator terms)
        of one score_windows call, or None on error."""
        g, e, d = bundle
        gamma = self.common["detection"]["gamma"]
        self.attempted += 1
        start = clock()
        try:
            scored = fedbiwgan.detection.score_windows(x, g, e, d, gamma)
        except Exception:
            traceback.print_exc(file=self.log)
            self.failed += 1
            return None
        seconds = clock() - start
        return seconds, np.array([[s.score, s.reconstruction_term, s.discriminator_term]
                                  for s in scored])

    def detect_calls(self, pool, bundle, batch, first_call, calls, times, outputs):
        """Back-to-back calls at one batch size, cycling over the pool;
        appends each call's seconds and (first window, scores)."""
        for call in range(first_call, first_call + calls):
            first = (call * batch) % len(pool)
            out = self.score(pool[first:first + batch], bundle)
            if out is not None:
                times.append(out[0])
                outputs.append((first, out[1]))

    def check_detection(self, outputs):
        """Count failed calls: the full-pool calls against the reference
        (finite values without one), every call against the first
        full-pool result for the same windows."""
        full = [s for _, s in outputs[4096]]
        if not full:
            return
        base = full[0]
        ref_ok = bool(np.all(np.isfinite(base)))
        if ref_ok and self.reference is not None:
            ref_ok = all(matches(d, r, self.rtol)
                         for d, r in zip(score_digests(base), self.reference["scores"]))
        if not ref_ok:
            print(f"{self.name} seed {self.seed}: pool scores failed the reference check",
                  file=self.log)
            self.failed += sum(len(v) for v in outputs.values())
            return
        rtol = self.common["tolerance"]["batch_invariance_rtol"]
        bad = 0
        for batch, calls in outputs.items():
            for first, scores in calls:
                bad += not matches(scores, base[first:first + len(scores)], rtol)
        if bad:
            print(f"{self.name} seed {self.seed}: {bad} score calls disagree with the "
                  f"batch-4096 scores", file=self.log)
        self.failed += bad

    # -- one pass ------------------------------------------------------------

    def bucket(self, name):
        if self.tracer is not None:
            self.tracer.bucket = name

    def run_pass(self, seconds, minimum, tracer=None):
        """Rounds of set-up, one training run and a slice of the score
        calls at each batch size, sized to `seconds`. Interleaving spreads
        every metric's samples over the whole run, so a slow spell of the
        host does not land on one phase alone. With a tracer, untraced and
        traced rounds alternate, each side doing the full work, so the
        tracing overhead is taken under the same host conditions. Returns
        the raw samples of each side, untraced first."""
        counts = self.counts(seconds, minimum)
        batches = self.common["detection"]["batches"]
        t = self.train_cfg
        windows = t["slices"] * t["monitors_per_slice"] * t["batch_size"] * self.iterations
        sides = [None] if tracer is None else [None, tracer]
        samples = [{"setup": [], "iter_s": [], "runs": [], "result": None, "train_rss": None,
                    "detect": {b: [] for b in batches}} for _ in sides]
        outputs = {b: [] for b in batches}
        pool = self.detection_pool()
        gc.collect()
        for r in range(counts["rounds"] * len(sides)):
            self.tracer = sides[r % len(sides)]
            sample = samples[r % len(sides)]
            # the boundary wrapper goes last, outermost, so it switches the
            # bucket before the first span of an iteration opens
            targets = [(fedbiwgan.federation, "manager_generate", self.boundary_wrapper)]
            watch = contextlib.nullcontext()
            if self.tracer is not None:
                targets = layer_targets(self.tracer) + targets
                watch = self.tracer.gc_watch()
            with patched(targets), watch:
                self.run_round(r // len(sides), counts, pool, sample, outputs)
        self.check_detection(outputs)
        warmup = self.common["warmup_iterations"]
        for sample in samples:
            runs = sample.pop("runs")
            sample.update(iter_s=sample["iter_s"][warmup:], train_seconds=sum(sample["iter_s"]),
                          train_runs=len(runs), train_windows=windows * len(runs),
                          train_wall=sum(runs))
        return samples

    def run_round(self, r, counts, pool, sample, outputs):
        """Round `r`: one set-up, one training run, then this round's
        slice of the score calls at each batch size."""
        self.bucket("build")
        sample["setup"].append(self.setup_once())
        out = self.train_once()
        if out is None:
            return
        result, times, run_seconds = out
        sample["result"] = result
        sample["iter_s"].extend(times)
        sample["runs"].append(run_seconds)
        if sample["train_rss"] is None:
            sample["train_rss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        bundle = result.bundle_for(0, 0)
        rounds = counts["rounds"]
        for batch in sample["detect"]:
            n = counts[f"b{batch}"]
            first, last = n * r // rounds, n * (r + 1) // rounds
            self.bucket(f"b{batch}")
            self.detect_calls(pool, bundle, batch, first, last - first,
                              sample["detect"][batch], outputs[batch])


def score_digests(scores):
    """A digest per column: the score and each of its two terms, so a
    change to the small discriminator term is not lost in the sum."""
    return [digest([column]) for column in scores.T]


# ---------------------------------------------------------------------------
# metrics


def end_to_end(w, sample):
    records = sample["result"].ledger.records
    det = sample["detect"]
    return {
        "setup_s": (statistics.median(sample["setup"]), "s"),
        "iter_ms_p50": (percentile(sample["iter_s"], 50) * 1e3, "ms"),
        "iter_ms_p90": (percentile(sample["iter_s"], 90) * 1e3, "ms"),
        "train_windows_per_s": (sample["train_windows"] / sample["train_wall"], "1/s"),
        "bytes_per_iter": (sum(r["payload_bytes"] + r["overhead_bytes"] for r in records)
                           / w.iterations, "B"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "detect_b1_ms_p50": (percentile(det[1], 50) * 1e3, "ms"),
        "detect_b1_ms_p90": (percentile(det[1], 90) * 1e3, "ms"),
        "detect_b64_windows_per_s": (64 * len(det[64]) / sum(det[64]), "1/s"),
        "detect_b4096_windows_per_s": (4096 * len(det[4096]) / sum(det[4096]), "1/s"),
    }


TRAIN_SELF = {
    "autodiff.grad.self_ms": "autodiff.grad",
    "models.critic_loss.self_ms": "models.critic_loss",
    "models.error_feedbacks.self_ms": "models.error_feedbacks",
    "models.eg_local_loss.self_ms": "models.eg_local_loss",
    "models.encoder_fwd.self_ms": "models.encoder_fwd",
    "models.generator_fwd.self_ms": "models.generator_fwd",
    "nn.adam_step.self_ms": "nn.adam_step",
    "federation.bus_send.self_ms": "federation.bus_send",
}
TRAIN_TOTAL = {
    "federation.manager_generate.ms": "federation.manager_generate",
    "federation.monitor_round.ms": "federation.monitor_round",
    "federation.manager_update.ms": "federation.manager_update",
    "federation.assemble_manager_gradients.ms": "federation.assemble_manager_gradients",
    "federation.controller_aggregate.ms": "federation.controller_aggregate",
    "federation.apply_global.ms": "federation.apply_global",
    "wire.encode_message.ms": "wire.encode_message",
    "wire.decode_message.ms": "wire.decode_message",
}
TRAIN_CALLS = {"autodiff.grad.calls": "autodiff.grad", "nn.adam_step.calls": "nn.adam_step"}
DETECT_SELF = {
    "models.encoder_fwd.self_ms": "models.encoder_fwd",
    "models.generator_fwd.self_ms": "models.generator_fwd",
    "models.critic_raw_output.self_ms": "models.critic_raw_output",
    "detection.score_windows.self_ms": "detection.score_windows",
}


def per_layer(w, plain, traced, tracer):
    """Per-iteration training metrics and per-call detection metrics of
    the traced pass; tracing overhead against the untraced pass."""
    metrics = {}
    n_iter = traced["train_runs"] * w.iterations
    train = tracer.totals("train")

    def get(name, i):
        return train.get(name, (0, 0.0, 0.0))[i]

    for metric, span in TRAIN_SELF.items():
        metrics[metric] = (get(span, 2) * 1e3 / n_iter, "ms")
    for metric, span in TRAIN_TOTAL.items():
        metrics[metric] = (get(span, 1) * 1e3 / n_iter, "ms")
    for metric, span in TRAIN_CALLS.items():
        metrics[metric] = (get(span, 0) / n_iter, "count")
    metrics["autodiff.nodes"] = (tracer.counts["train"]["autodiff.nodes"] / n_iter, "count")
    metrics["autodiff.gc.collections"] = (
        tracer.counts["train"]["autodiff.gc.collections"] / n_iter, "count")
    metrics["autodiff.gc.pause_ms"] = (tracer.gc_pause["train"] * 1e3 / n_iter, "ms")

    records = traced["result"].ledger.records
    metrics["wire.messages"] = (len(records) / w.iterations, "count")
    metrics["wire.payload_bytes"] = (
        sum(r["payload_bytes"] for r in records) / w.iterations, "B")
    metrics["wire.overhead_bytes"] = (
        sum(r["overhead_bytes"] for r in records) / w.iterations, "B")

    build = tracer.totals("build").get("experiment.build_node_data", (1, 0.0, 0.0))
    metrics["experiment.build_node_data.ms"] = (build[1] * 1e3 / build[0], "ms")

    for batch, times in traced["detect"].items():
        key = f"b{batch}"
        calls = len(times)
        spans = tracer.totals(key)
        for metric, span in DETECT_SELF.items():
            metrics[f"{metric}.{key}"] = (spans.get(span, (0, 0.0, 0.0))[2] * 1e3 / calls, "ms")
        metrics[f"detection.score_windows.ms.{key}"] = (
            spans.get("detection.score_windows", (0, 0.0, 0.0))[1] * 1e3 / calls, "ms")
        metrics[f"autodiff.nodes.{key}"] = (tracer.counts[key]["autodiff.nodes"] / calls, "count")
        metrics[f"autodiff.gc.collections.{key}"] = (
            tracer.counts[key]["autodiff.gc.collections"] / calls, "count")
        metrics[f"autodiff.gc.pause_ms.{key}"] = (tracer.gc_pause[key] * 1e3 / calls, "ms")

    traced_iter = statistics.median(traced["iter_s"]) * 1e3
    traced_b1 = statistics.median(traced["detect"][1]) * 1e3
    metrics["trace.iter_ms_p50"] = (traced_iter, "ms")
    metrics["trace.overhead.iter_ms_p50"] = (
        traced_iter - statistics.median(plain["iter_s"]) * 1e3, "ms")
    metrics["trace.detect_b1_ms_p50"] = (traced_b1, "ms")
    metrics["trace.overhead.detect_b1_ms_p50"] = (
        traced_b1 - statistics.median(plain["detect"][1]) * 1e3, "ms")
    # the iterations' root spans partition into the layers' self times
    metrics["trace.span_coverage"] = (
        100 * tracer.root_seconds("train") / traced["train_seconds"], "%")
    metrics["memory.train_peak_rss_mib"] = (plain["train_rss"], "MiB")
    return metrics


def print_report(w, metrics, sample, env):
    print(json.dumps({"environment": env}))
    print(f"workload {w.name} seed {w.seed}: {len(sample['iter_s'])} timed iterations "
          f"(p{highest_percentile(len(sample['iter_s'])):g} supported), "
          + ", ".join(f"b{b}: {len(t)} calls" for b, t in sample["detect"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.4f} {unit}")
    print(f"operations attempted {w.attempted}, failed {w.failed}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = load_spec()
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not load_package():
        print(f"no fedbiwgan package under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    refs = json.loads((HERE / "references.json").read_text())
    w = Workload(spec, args.workload, args.seed,
                 refs.get(args.workload, {}).get(str(args.seed)))
    common = spec["common"]
    env = environment(ROOT)
    env["reference"] = w.reference is not None

    if args.trace:
        tracer = Tracer()
        plain, traced = w.run_pass(args.seconds / 2, common["minimum_traced"], tracer)
        if traced["result"] is None or plain["result"] is None:
            return _fail(w)
        metrics = per_layer(w, plain, traced, tracer)
        tracer.write(ROOT / ".bench_out" / f"spans-{w.name}-seed{w.seed}.jsonl")
        sample = traced
    else:
        (sample,) = w.run_pass(args.seconds, common["minimum"])
        if sample["result"] is None:
            return _fail(w)
        metrics = end_to_end(w, sample)

    print_report(w, metrics, sample, env)
    print(json.dumps({
        "correct": w.failed == 0,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _fail(w):
    print(f"{w.name} seed {w.seed}: every training run failed; no metrics "
          f"({w.attempted} operations attempted)", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
