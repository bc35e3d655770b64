import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from fedbiwgan.config import ConfigError, resolve_experiment
from fedbiwgan.data import (
    DataError,
    FAULT_GROUP,
    FAULT_TYPES,
    FEATURE_GROUPS,
    FEATURE_NAMES,
    Normalizer,
    SynthSpec,
    fit_normalizer,
    inject_faults,
    load_dataset,
    make_windows,
    split_windows,
    synth_dataset,
)
from fedbiwgan.experiment import build_node_data


def _write_csv(path, rows, header=None):
    header = header or (["timestamp"] + FEATURE_NAMES)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# ingestion


def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    _write_csv(p, [])
    values = load_dataset(p)
    assert values.shape == (0, 26) and values.dtype == np.float64


def test_load_three_rows_in_order(tmp_path):
    p = tmp_path / "three.csv"
    rows = [[i] + [float(i * 100 + j) for j in range(26)] for i in range(3)]
    _write_csv(p, rows)
    values = load_dataset(p)
    assert values.shape == (3, 26)
    np.testing.assert_array_equal(values, np.array(rows, dtype=np.float64)[:, 1:])


def test_load_missing_header(tmp_path):
    p = tmp_path / "nohdr.csv"
    p.write_text("")
    with pytest.raises(DataError):
        load_dataset(p)


def test_load_missing_column(tmp_path):
    p = tmp_path / "short.csv"
    _write_csv(p, [], header=FEATURE_NAMES[:-1])
    with pytest.raises(DataError):
        load_dataset(p)


def test_load_column_mapping_and_labels(tmp_path):
    p = tmp_path / "mapped.csv"
    header = ["weird_idle"] + FEATURE_NAMES[1:] + ["anomaly"]
    rows = [[5.0] + [0.0] * 25 + [1], [6.0] + [0.0] * 25 + [0], [7.0] + [0.0] * 25 + [""]]
    _write_csv(p, rows, header)
    values = load_dataset(p, column_mapping={"cpu_idle_pct": "weird_idle"})
    assert values[:, 0].tolist() == [5.0, 6.0, 7.0]


@pytest.mark.parametrize("bad_row", [
    [0.0] * 25 + ["inf", 0],
    [0.0] * 25 + ["-inf", 0],
    [0.0] * 25 + ["x1", 0],
    [0.0] * 25 + ["yes", 0],
    [0.0] * 25 + ["1e999", 0],
])
def test_load_unparseable_cell_skips_row_or_names_line(tmp_path, bad_row):
    p = tmp_path / "bad.csv"
    rows = [[1.0] * 26 + [0], bad_row, [2.0] * 26 + [1]]
    _write_csv(p, rows, FEATURE_NAMES + ["anomaly"])
    values = load_dataset(p)
    assert np.isfinite(values).all()
    np.testing.assert_array_equal(values[:, 0], [1.0, 2.0])
    with pytest.raises(DataError, match=r"bad\.csv:3: unparseable"):
        load_dataset(p, strict=True)


def test_gap_interpolation_short_gap(tmp_path):
    p = tmp_path / "gap.csv"
    rows = [[0] + [1.0] * 26, [1] + [""] * 26, [2] + [3.0] * 26]
    _write_csv(p, rows)
    values = load_dataset(p)
    assert values.shape == (3, 26)
    np.testing.assert_allclose(values[1], np.full(26, 2.0))


def test_gap_too_long_drops_rows(tmp_path):
    p = tmp_path / "gap2.csv"
    rows = [[0] + [1.0] * 26]
    rows += [[i] + [""] * 26 for i in range(1, 4)]
    rows += [[4] + [5.0] * 26]
    _write_csv(p, rows)
    values = load_dataset(p, max_gap=2)
    assert values.shape == (2, 26)


# ---------------------------------------------------------------------------
# normalization


def test_normalizer_pinned_value():
    norm = Normalizer(minimum=np.zeros(1), maximum=np.full(1, 10.0))
    assert norm.apply(np.array([[5.0]]))[0, 0] == 0.5


def test_normalizer_constant_feature_is_zero():
    norm = fit_normalizer(np.full((5, 3), 7.0))
    out = norm.apply(np.full((2, 3), 7.0))
    np.testing.assert_array_equal(out, np.zeros((2, 3)))


def test_normalizer_no_clipping():
    norm = Normalizer(minimum=np.zeros(1), maximum=np.ones(1))
    assert norm.apply(np.array([[2.5]]))[0, 0] == 2.5


def test_fit_normalizer_empty():
    with pytest.raises(DataError):
        fit_normalizer(np.zeros((0, 26)))


# ---------------------------------------------------------------------------
# windows and splits


def test_window_count_arithmetic():
    values = np.zeros((10, 26))
    assert len(make_windows(values, 8, 1)) == 3


def test_window_longer_than_series():
    with pytest.raises(DataError):
        make_windows(np.zeros((5, 26)), 8)
    for stride in (0, -1):
        with pytest.raises(DataError, match="data.stride"):
            make_windows(np.zeros((5, 26)), 2, stride)
    # a config with such a stride is refused before any data loads
    for stride in (0, -1):
        with pytest.raises(ConfigError, match="data.stride"):
            resolve_experiment({"data": {"source": "synth", "length": 50, "stride": stride}})


def _loop_windows(values, t, stride):
    """Reference: one explicit slice per window start."""
    starts = range(0, values.shape[0] - t + 1, stride)
    return np.stack([values[i:i + t] for i in starts])


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40), t=st.integers(1, 40), stride=st.integers(1, 7),
       features=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_make_windows_matches_loop_reference(rows, t, stride, features, seed):
    values = np.random.default_rng(seed).standard_normal((rows, features))
    if t > rows:
        with pytest.raises(DataError):
            make_windows(values, t, stride)
        return
    out = make_windows(values, t, stride)
    ref = _loop_windows(values, t, stride)
    assert out.shape == ref.shape == (len(range(0, rows - t + 1, stride)), t, features)
    assert out.dtype == np.float64
    assert not out.flags.writeable and np.shares_memory(out, values)
    assert out.tobytes() == ref.tobytes()


def test_split_ratios():
    values = np.arange(103, dtype=np.float64)[:, None] * np.ones(26)
    splits = split_windows(make_windows(values, 4, 1))  # 100 windows
    assert (len(splits["train"]), len(splits["val"]), len(splits["test"])) == (60, 20, 20)
    # chronological: no window start crosses a boundary
    assert splits["train"][-1, 0, 0] < splits["val"][0, 0, 0] < splits["test"][0, 0, 0]


def test_split_bad_ratios():
    for ratios in ((0.5, 0.2, 0.2), (0.5, 0.5), (1.2, -0.2, 0.0)):
        with pytest.raises(DataError, match="data.ratios"):
            split_windows(np.zeros((0, 4, 26)), ratios=ratios)
    with pytest.raises(ConfigError, match="data.ratios"):
        resolve_experiment({"data": {"source": "synth", "length": 50, "ratios": [0.5, 0.5]}})


def _owner(array):
    """The array at the end of a view's base chain: the one whose memory it reads."""
    while array.base is not None:
        array = array.base
    return array


def _copied_node_data(values, t, stride, ratios):
    """The copying pipeline, as a reference: contiguous windows, split,
    a normalizer fitted on the flattened training windows, applied to
    each split."""
    splits = split_windows(_loop_windows(values, t, stride), ratios)
    flat = splits["train"].reshape(-1, values.shape[1])
    norm = Normalizer(minimum=flat.min(axis=0), maximum=flat.max(axis=0))
    return {name: norm.apply(w) for name, w in splits.items()}, norm


@pytest.mark.parametrize("ratios", [(0.6, 0.2, 0.2), (0.9, 0.1, 0.0)])
@pytest.mark.parametrize("stride", [1, 3, 9])
@pytest.mark.parametrize("window", [4, 8])
@pytest.mark.parametrize("source", ["synth", "csv"])
def test_node_data_equals_the_copying_pipeline(tmp_path, source, window, stride, ratios):
    seed, length = 11, 150
    data = {"source": source, "length": length, "stride": stride, "ratios": list(ratios)}
    if source == "synth":
        node_seed = int(np.random.SeedSequence([seed, 0, 0]).generate_state(1)[0])
        values = synth_dataset(SynthSpec(length, SynthSpec.noise, node_seed))
    else:
        rows = np.random.default_rng(seed).uniform(0.0, 50.0, (length, 26))
        # row `window` lies in no window at stride 9, so a normalizer fitted
        # on a row range instead of the training windows sees this spike
        rows[window] = 1e3
        path = tmp_path / "node.csv"
        _write_csv(path, [[i] + list(row) for i, row in enumerate(rows)])
        values = load_dataset(path)
        data["paths"] = {"0.0": str(path)}
    exp = resolve_experiment({"seed": seed, "model": {"window": window}, "data": data})
    nd = build_node_data(exp)[(0, 0)]
    ref, norm = _copied_node_data(values, window, stride, ratios)
    assert nd.normalizer.minimum.tobytes() == norm.minimum.tobytes()
    assert nd.normalizer.maximum.tobytes() == norm.maximum.tobytes()
    for name in ("train", "val", "test"):
        split = getattr(nd, name)
        assert split.shape == ref[name].shape
        assert split.tobytes() == ref[name].tobytes()
        with pytest.raises(ValueError):
            split[...] = 0.0
    # one normalized [rows, 26] series holds every window of the monitor
    series = _owner(nd.train)
    assert series.shape == values.shape
    assert _owner(nd.val) is series and _owner(nd.test) is series


def _node_data_bytes(window):
    exp = resolve_experiment({"model": {"window": window},
                              "data": {"source": "synth", "length": 2000}})
    tracemalloc.start()
    try:
        nodes = build_node_data(exp)  # held while the memory is read
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_node_data_memory_does_not_grow_with_the_window():
    _node_data_bytes(4)  # the first call also traces one-time imports
    assert _node_data_bytes(32) <= 1.5 * _node_data_bytes(4)


def test_make_windows_shape():
    wins = make_windows(np.zeros((10, 26)), 4, 2)
    assert wins.shape == (4, 4, 26)


def test_empty_split_keeps_window_shape():
    exp = resolve_experiment({"model": {"window": 5},
                              "data": {"source": "synth", "length": 60,
                                       "ratios": [0.9, 0.1, 0.0]}})
    nd = build_node_data(exp)[(0, 0)]
    assert nd.test.shape == (0, 5, 26)
    for split in (nd.train, nd.val, nd.test):
        assert split.dtype == np.float64 and not split.flags.writeable
        assert _owner(split) is _owner(nd.train)
    x, labels, faults = inject_faults(nd.test, 0.1)
    assert x.shape == (0, 5, 26) and labels.shape == faults.shape == (0,)


# ---------------------------------------------------------------------------
# injection


def _normal_windows(n, seed=0):
    return np.random.default_rng(seed).random((n, 8, 26))


def test_injection_spec_validation():
    wins = _normal_windows(10)
    with pytest.raises(DataError, match="unknown fault"):
        inject_faults(wins, 0.1, faults=("thermal_runaway",))
    for rate in (1.5, -0.1):
        with pytest.raises(DataError, match="injection.rate"):
            inject_faults(wins, rate)


def test_injection_seeded_count():
    wins = _normal_windows(100)
    _, labels, _ = inject_faults(wins, 0.1, seed=3, faults=("cpu_endless_loop",))
    assert labels.sum() == 10
    _, labels2, _ = inject_faults(wins, 0.1, seed=3, faults=("cpu_endless_loop",))
    assert labels.tolist() == labels2.tolist()


def test_injection_touches_only_fault_group():
    wins = _normal_windows(50, seed=1)
    for fault in FAULT_TYPES:
        out, labels, _ = inject_faults(wins, 0.2, seed=5, faults=(fault,))
        group = FEATURE_GROUPS[FAULT_GROUP[fault]]
        for before, after, label in zip(wins, out, labels):
            if label == 0:
                np.testing.assert_array_equal(before, after)
                continue
            untouched = np.ones(26, dtype=bool)
            untouched[group] = False
            np.testing.assert_array_equal(before[:, untouched], after[:, untouched])
            assert np.any(before[:, group] != after[:, group])


def test_fault_mix_covers_all_types_disjointly():
    wins = _normal_windows(200)
    _, labels, faults = inject_faults(wins, rate=0.2, seed=0)
    assert labels.sum() == 40
    assert set(faults[labels == 1]) == set(FAULT_TYPES)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 60), rate=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       faults=st.lists(st.sampled_from(FAULT_TYPES), min_size=1, max_size=4, unique=True),
       view=st.booleans())
def test_inject_faults_invariants(n, rate, seed, faults, view):
    wins = np.random.default_rng(seed).random((n, 4, 26))
    if view:  # the read-only window view a monitor's splits are made of
        wins = make_windows(np.random.default_rng(seed).random((n + 4, 26)), 4, 1)[:n]
    before = wins.copy()
    x, labels, names = inject_faults(wins, rate, magnitude=2.5, seed=seed, faults=faults)
    assert wins.tobytes() == before.tobytes()  # the input is not modified
    assert x.shape == wins.shape and x.dtype == np.float64 and x.flags["C_CONTIGUOUS"]
    assert x.flags.writeable and not np.shares_memory(x, wins)
    count = int(round(rate * n))
    assert labels.sum() == count
    injected = np.flatnonzero(labels)
    untouched = labels == 0
    assert x[untouched].tobytes() == wins[untouched].tobytes()
    assert all(name is None for name in names[untouched])
    # types are disjoint and cycled over the seeded draw order: a choice of
    # `count` distinct windows, shuffled; the i-th gets faults[i % len(faults)]
    rng = np.random.default_rng(seed)
    order = rng.choice(n, size=count, replace=False)
    rng.shuffle(order)
    assert [names[i] for i in order] == [faults[i % len(faults)] for i in range(count)]
    for i in injected:
        group = FEATURE_GROUPS[FAULT_GROUP[names[i]]]
        outside = np.ones(26, dtype=bool)
        outside[group] = False
        assert x[i][:, outside].tobytes() == wins[i][:, outside].tobytes()
        assert np.any(x[i][:, group] != wins[i][:, group])


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_deterministic():
    spec = SynthSpec(length=100, seed=9)
    np.testing.assert_array_equal(synth_dataset(spec), synth_dataset(spec))


def test_synth_zero_noise_is_sinusoid():
    series = synth_dataset(SynthSpec(length=500, noise=0.0, seed=4))
    assert series.shape == (500, 26)
    # a pure sinusoid plus a constant satisfies the exact recurrence
    # x[t+1] + x[t-1] = a*x[t] + b with a = 2cos(2*pi/period)
    for j in range(26):
        col = series[:, j]
        lhs = col[2:] + col[:-2]
        basis = np.stack([col[1:-1], np.ones(len(col) - 2)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, lhs, rcond=None)
        residual = lhs - basis @ coef
        assert np.max(np.abs(residual)) < 1e-8


def test_synth_validation():
    with pytest.raises(DataError):
        SynthSpec(length=0)
