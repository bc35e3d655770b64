"""VM resource-metrics dataset pipeline: CSV ingestion against the
26-feature schema, min-max normalization, sliding windows, chronological
splits, fault injection, and a synthetic generator for desk-scale runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Canonical 26-feature schema: 4 CPU, 8 disk, 7 memory, 7 network.
FEATURE_NAMES = [
    "cpu_idle_pct", "cpu_wait_pct", "cpu_system_pct", "cpu_stolen_pct",
    "disk_used_pct", "disk_read_reqs", "disk_write_reqs", "disk_read_freq",
    "disk_write_freq", "disk_read_rate", "disk_write_rate", "disk_wait_pct",
    "mem_avg_load", "mem_usable_pct", "mem_usable_mb", "mem_free_mb",
    "mem_total_mb", "mem_buffers_mb", "mem_cached_mb",
    "net_in_bytes", "net_out_bytes", "net_in_errors", "net_out_errors",
    "net_in_packets", "net_out_packets", "net_dropped_packets",
]
NUM_FEATURES = len(FEATURE_NAMES)

FEATURE_GROUPS = {
    "cpu": slice(0, 4),
    "disk": slice(4, 12),
    "memory": slice(12, 19),
    "network": slice(19, 26),
}

FAULT_TYPES = ("cpu_endless_loop", "memory_leak", "disk_io_fault", "network_congestion")
FAULT_GROUP = {
    "cpu_endless_loop": "cpu",
    "memory_leak": "memory",
    "disk_io_fault": "disk",
    "network_congestion": "network",
}


class DataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# ingestion


def load_dataset(path, column_mapping=None, strict=False, max_gap=3):
    """Read a delimited text file into a [rows, 26] float64 matrix.

    column_mapping maps each canonical feature name to the file's column
    header; identity mapping by default. A row with a cell that does not
    parse as a finite number is skipped, or raises DataError naming
    file:line when strict. Blank and NaN cells are missing values:
    linearly interpolated over gaps of at most `max_gap` rows, while
    longer gaps drop the affected rows.
    """
    mapping = dict(column_mapping or {})
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: missing header row")
        columns = []
        for name in FEATURE_NAMES:
            src = mapping.get(name, name)
            if src not in reader.fieldnames:
                raise DataError(f"{path}: mapped column {src!r} (for {name}) not found")
            columns.append(src)
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append([_parse_cell(row.get(src), src) for src in columns])
            except DataError as exc:
                if strict:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
    matrix = np.array(rows, dtype=np.float64).reshape(-1, NUM_FEATURES)
    return matrix[_interpolate_gaps(matrix, max_gap)]


def _parse_cell(cell, column):
    """A finite float, or NaN for a blank cell; DataError otherwise."""
    cell = (cell or "").strip()
    if cell == "":
        return np.nan
    try:
        value = float(cell)
    except ValueError:
        value = math.inf
    if math.isinf(value):
        raise DataError(f"unparseable value {cell!r} in {column}")
    return value


def _interpolate_gaps(matrix, max_gap):
    """In-place linear interpolation of NaN runs of length <= max_gap;
    returns a keep-mask marking rows whose gaps could not be filled."""
    n = matrix.shape[0]
    keep = np.ones(n, dtype=bool)
    for j in range(matrix.shape[1]):
        col = matrix[:, j]
        isnan = np.isnan(col)
        i = 0
        while i < n:
            if not isnan[i]:
                i += 1
                continue
            start = i
            while i < n and isnan[i]:
                i += 1
            end = i  # gap is [start, end)
            if start == 0 or end == n or end - start > max_gap:
                keep[start:end] = False
                continue
            left, right = col[start - 1], col[end]
            for k in range(start, end):
                frac = (k - start + 1) / (end - start + 1)
                col[k] = left + frac * (right - left)
    return keep


# ---------------------------------------------------------------------------
# normalization


@dataclass
class Normalizer:
    """Per-feature min-max fitted once on the training split. Values
    outside the training range are deliberately not clipped."""

    minimum: np.ndarray
    maximum: np.ndarray

    def apply(self, values):
        values = np.asarray(values, dtype=np.float64)
        span = self.maximum - self.minimum
        out = np.zeros_like(values)
        nz = span != 0
        out[..., nz] = (values[..., nz] - self.minimum[nz]) / span[nz]
        return out


def fit_normalizer(train_values) -> Normalizer:
    """Per-feature min and max of [..., features] training values, taken
    over every leading axis of the array as given: reshaping an
    overlapping window view would copy it."""
    values = np.asarray(train_values, dtype=np.float64)
    if values.size == 0:
        raise DataError("cannot fit normalizer on an empty training set")
    axes = tuple(range(values.ndim - 1))
    return Normalizer(minimum=values.min(axis=axes), maximum=values.max(axis=axes))


# ---------------------------------------------------------------------------
# config sections, windowing and splits


def check_stride(stride):
    if stride < 1:
        raise DataError(f"data.stride must be >= 1, got {stride}")


def check_ratios(ratios):
    if len(ratios) != 3 or min(ratios) < 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(
            f"data.ratios must be three non-negative fractions summing to 1, got {list(ratios)}"
        )


@dataclass
class SynthSpec:
    length: int = 5000
    noise: float = 0.05
    seed: int = 7
    features: int = NUM_FEATURES

    def __post_init__(self):
        if self.length < 1:
            raise DataError("length must be >= 1")
        if not self.noise >= 0:
            raise DataError(f"noise must be >= 0, got {self.noise}")


@dataclass
class DataConfig:
    """The `data` config section: each monitor's series and its windows."""

    source: str = "synth"  # "synth" or "csv"
    length: int = SynthSpec.length
    noise: float = SynthSpec.noise
    seed: int | None = None  # synthetic series seed; None means the run seed
    stride: int = 1
    ratios: tuple[float, ...] = (0.6, 0.2, 0.2)
    paths: dict[str, str] = field(default_factory=dict)  # "s.n" -> CSV of monitor (s, n)
    mapping: dict[str, str] = field(default_factory=dict)  # feature name -> CSV column

    def __post_init__(self):
        if self.source not in ("synth", "csv"):
            raise DataError(f"data.source must be 'synth' or 'csv', got {self.source!r}")
        check_stride(self.stride)
        check_ratios(self.ratios)
        SynthSpec(self.length, self.noise)


@dataclass
class InjectionConfig:
    """The `injection` config section: the val/test fault mix (test seed + 1)."""

    rate: float = 0.1
    magnitude: float = 2.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise DataError(f"injection.rate must lie in [0, 1], got {self.rate}")


def make_windows(values, t, stride=DataConfig.stride):
    """Every stride-th run of t consecutive rows of a [rows, features]
    matrix, as a read-only float64 [n, t, features] view of it: window i
    is rows [i * stride, i * stride + t), and no row is copied."""
    values = np.asarray(values, dtype=np.float64)
    if t < 1:
        raise DataError(f"window length must be >= 1, got {t}")
    check_stride(stride)
    if t > values.shape[0]:
        raise DataError(f"window length {t} exceeds record count {values.shape[0]}")
    view = sliding_window_view(values, t, axis=0)[::stride]  # [n, features, t]
    return np.moveaxis(view, -1, 1)


def split_windows(windows, ratios=DataConfig.ratios):
    """Chronological train/val/test split; no shuffling across time.
    Each split is a slice, so a view of the windows stays a view."""
    check_ratios(ratios)
    n = len(windows)
    n_train = int(round(ratios[0] * n))
    n_val = int(round(ratios[1] * n))
    return {
        "train": windows[:n_train],
        "val": windows[n_train:n_train + n_val],
        "test": windows[n_train + n_val:],
    }


# ---------------------------------------------------------------------------
# fault injection


def _perturb(windows, fault_type, magnitude):
    """Apply a fault signature to normalized [..., t, features] windows,
    touching only the fault's feature group; returns a perturbed copy."""
    t = windows.shape[-2]
    w = windows.copy()
    if fault_type == "cpu_endless_loop":
        # busy spin: idle collapses, wait/system/stolen saturate past range
        w[..., 0] *= 0.02
        w[..., 1:4] = magnitude
    elif fault_type == "memory_leak":
        # monotone ramp: load climbs, usable/free drain below range
        ramp = np.linspace(0.0, magnitude, t).reshape(-1, 1)
        w[..., 12:13] += ramp
        w[..., 13:16] -= ramp
        w[..., 17:19] -= 0.75 * ramp
    elif fault_type == "disk_io_fault":
        # read/write activity and wait spiked multiplicatively
        w[..., 5:12] *= magnitude
        w[..., 4] += 0.5
    elif fault_type == "network_congestion":
        # in traffic, errors and drops spike; out size throttled
        w[..., 19] = w[..., 19] * magnitude + 0.5
        w[..., 21:26] = w[..., 21:26] * magnitude + 0.5
        w[..., 20] *= 0.1
    return w


def inject_faults(windows, rate, magnitude=InjectionConfig.magnitude, seed=InjectionConfig.seed,
                  faults=FAULT_TYPES):
    """Perturb a seeded round(rate * n) of the [n, t, features] windows,
    cycling through `faults` on disjoint window sets.

    Returns (x, labels, faults): the windows with the injected ones
    perturbed (all others bitwise untouched), an [n] int array that is 1
    on injected windows, and an [n] object array of fault names (None on
    untouched windows)."""
    InjectionConfig(rate, magnitude, seed)
    if not faults or not set(faults) <= set(FAULT_TYPES):
        raise DataError(f"unknown fault types {list(faults)}; valid types are {list(FAULT_TYPES)}")
    x = np.array(windows, dtype=np.float64)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    picked = rng.choice(n, size=int(round(rate * n)), replace=False)
    rng.shuffle(picked)
    labels = np.zeros(n, dtype=np.int64)
    names = np.full(n, None, dtype=object)
    for k, fault in enumerate(faults):
        idx = picked[k::len(faults)]
        x[idx] = _perturb(x[idx], fault, magnitude)
        labels[idx] = 1
        names[idx] = fault
    return x, labels, names


# ---------------------------------------------------------------------------
# synthetic generator


def synth_dataset(spec: SynthSpec) -> np.ndarray:
    """Multivariate series of sinusoidal baselines plus Gaussian noise,
    reproducible by seed. Returns [length, features] raw values."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length, dtype=np.float64)
    base = rng.uniform(10.0, 100.0, spec.features)
    amp = rng.uniform(1.0, 10.0, spec.features)
    period = rng.uniform(24.0, 240.0, spec.features)
    phase = rng.uniform(0.0, 2 * np.pi, spec.features)
    series = base + amp * np.sin(2 * np.pi * t[:, None] / period + phase)
    if spec.noise > 0:
        series = series + rng.normal(0.0, spec.noise * amp, (spec.length, spec.features))
    return series
