"""Helpers of the benchmark that do not import fedbiwgan: percentiles,
in-memory spans with self time, reversible function wrapping, the wire
byte closed form, reference digests and the environment record.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def highest_percentile(n, candidates=PERCENTILES, beyond=10):
    """Highest candidate percentile that has at least `beyond` of `n`
    samples above it, or None when even the lowest has too few."""
    best = None
    for p in sorted(candidates):
        if n * (100.0 - p) / 100.0 >= beyond - 1e-9:
            best = p
    return best


def percentile(values, p):
    """Percentile of `values` by linear interpolation, refusing a
    percentile with fewer than ten samples beyond it."""
    supported = highest_percentile(len(values), candidates=(p,))
    if supported is None:
        raise ValueError(f"p{p:g} needs at least {int(np.ceil(1000 / (100 - p)))} "
                         f"samples, got {len(values)}")
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, bucket],
    counters and garbage-collector pauses, each booked to the current
    bucket (a phase of the workload such as "train" or "b64")."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.bucket = "setup"
        self.counts = defaultdict(lambda: defaultdict(int))
        self.gc_pause = defaultdict(float)
        self._gc_start = None

    def wrap(self, fn, name):
        """A function that records a span named `name` around `fn`."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.clock(), None, parent, self.bucket])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = self.clock()

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, name):
        """A function that counts its calls under `name`, with no span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[self.bucket][name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.counts[self.bucket]["autodiff.gc.collections"] += 1
            self.gc_pause[self.bucket] += self.clock() - self._gc_start
            self._gc_start = None

    @contextmanager
    def gc_watch(self):
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def self_times(self):
        """Seconds per span: its duration minus that of its children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(self, bucket):
        """{name: (calls, total seconds, self seconds)} over a bucket."""
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, b), own in zip(self.spans, self.self_times()):
            if b == bucket:
                row = agg[name]
                row[0] += 1
                row[1] += end - start
                row[2] += own
        return {k: tuple(v) for k, v in agg.items()}

    def root_seconds(self, bucket):
        """Total duration of the spans of a bucket that have no parent."""
        return sum(end - start for _, start, end, parent, b in self.spans
                   if parent < 0 and b == bucket)

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, b) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "bucket": b, "start": start,
                                     "end": end, "parent": parent, "self": own[i]}) + "\n")


@contextmanager
def patched(targets):
    """Install wrappers and restore the originals on exit.

    `targets` is a list of (owner, attribute, make) where `owner` is a
    module or class whose own namespace holds the attribute, and `make`
    turns the original into its replacement. The patch goes where callers
    look the name up: a module that imported a function by name needs its
    own copy replaced."""
    installed = []
    try:
        for owner, attr, make in targets:
            original = vars(owner)[attr]
            setattr(owner, attr, make(original))
            installed.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# wire bytes

HEADER_BYTES = 16 + 4  # message header, then the u32 tensor count


def message_bytes(shapes):
    """(payload, overhead) bytes of one wire message holding tensors of
    the given shapes: 8 bytes per float; a u32 ndim and a u32 per dim."""
    payload = 8 * sum(int(np.prod(s)) for s in shapes)
    overhead = HEADER_BYTES + sum(4 + 4 * len(s) for s in shapes)
    return payload, overhead


def federated_bytes(slices, monitors, batch, window, features, latent, param_shapes,
                    local_iters, iterations):
    """Exact bytes a federated run of `iterations` sends: per monitor and
    iteration a data batch, a generator packet and a feedback; per slice
    and aggregation a parameter upload and download."""
    m, t, f, z = batch, window, features, latent
    per_monitor = (
        sum(message_bytes([(m, t, f)]))
        + sum(message_bytes([(m, z), (m, z), (m, t, f)]))
        + sum(message_bytes([(m, t * f + z)] * 2))
    )
    aggregations = iterations // local_iters
    return (iterations * slices * monitors * per_monitor
            + aggregations * slices * 2 * sum(message_bytes(param_shapes)))


# ---------------------------------------------------------------------------
# reference digests


def digest(values, k=32):
    """k evenly spaced entries of the flattened values, then their sum of
    squares: small enough to keep per seed, and any changed result moves
    nearly every entry."""
    v = np.concatenate([np.ravel(np.asarray(x, dtype=np.float64)) for x in values])
    idx = np.linspace(0, v.size - 1, min(k, v.size)).astype(np.int64)
    return [float(x) for x in v[idx]] + [float(np.dot(v, v))]


def matches(actual, reference, rtol):
    """Elementwise closeness with the absolute floor scaled by the
    largest reference magnitude, so near-zero entries tolerate the same
    summation-order drift as the rest."""
    a = np.asarray(actual, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    if a.shape != r.shape or not np.all(np.isfinite(a)):
        return False
    scale = float(np.max(np.abs(r))) if r.size else 0.0
    return bool(np.all(np.abs(a - r) <= rtol * (np.abs(r) + scale)))


# ---------------------------------------------------------------------------
# environment


def _git_commit(root):
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "gc_threshold": list(gc.get_threshold()),
        "commit": _git_commit(root),
    }
