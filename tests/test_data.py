"""Synthetic process, corruption, splits, standardization, CSV, windows."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2reg import (
    Dataset,
    SyntheticProcess,
    corrupt,
    generate_uncorrupted,
    split_cv,
    standardize,
    window_features,
)
from u2reg.data import feature_stats, read_table, table_text
from u2reg.rngutil import derive_seed


def proc(dim=3, seed=0, **kw) -> SyntheticProcess:
    return SyntheticProcess.draw(dim, derive_seed(seed, "dtest-proc"), **kw)


# ---------------------------------------------------------------------------
# process
# ---------------------------------------------------------------------------

def test_process_draw_is_seed_deterministic():
    a = proc(4, seed=1)
    b = proc(4, seed=1)
    c = proc(4, seed=2)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)
    assert a.weights.shape == (4,)


def test_process_validation():
    with pytest.raises(ValueError):
        SyntheticProcess(2, np.zeros(3))
    with pytest.raises(ValueError):
        SyntheticProcess(2, np.zeros(2), k_percent=101.0)
    with pytest.raises(ValueError):
        SyntheticProcess(2, np.zeros(2), mode="loose")
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            SyntheticProcess(2, np.zeros(2), beta=bad)
        with pytest.raises(ValueError):
            SyntheticProcess(2, np.zeros(2), corruption_scale=bad)


def test_noise_std_is_inverse_sqrt_precision():
    assert proc(2, beta=4.0).noise_std == 0.5
    assert proc(2, beta=0.1).noise_std == pytest.approx(np.sqrt(10.0))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_near_noiseless_at_huge_precision():
    p = proc(3, seed=3, beta=1e12)
    ds = generate_uncorrupted(p, 500, derive_seed(3, "dtest-gen"))
    assert np.max(np.abs(ds.ys_true - p.oracle(ds.xs))) < 1e-4


def test_generate_unit_precision_residual_std():
    p = proc(3, seed=4, beta=1.0)
    ds = generate_uncorrupted(p, 2000, derive_seed(4, "dtest-gen"))
    resid = ds.ys_true - p.oracle(ds.xs)
    assert 0.9 < resid.std() < 1.1
    assert abs(resid.mean()) < 0.1


def test_generate_starts_uncorrupted():
    ds = generate_uncorrupted(proc(2, seed=5), 50, derive_seed(5, "dtest-gen"))
    assert np.array_equal(ds.ys_prime, ds.ys_true)
    assert not ds.corrupted.any()
    with pytest.raises(ValueError):
        generate_uncorrupted(proc(2, seed=5), 0, 0)


def test_generate_is_seed_deterministic():
    p = proc(3, seed=6)
    a = generate_uncorrupted(p, 30, 123)
    b = generate_uncorrupted(p, 30, 123)
    c = generate_uncorrupted(p, 30, 124)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys_prime, b.ys_prime)
    assert not np.array_equal(a.ys_prime, c.ys_prime)


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------

def test_corrupt_row_count_is_rounded_percentage():
    for k, expect in ((0.0, 0), (50.0, 40), (25.0, 20), (33.0, 26), (100.0, 80)):
        p = proc(2, seed=7, k_percent=k)
        ds = generate_uncorrupted(p, 80, derive_seed(7, "dtest-gen"))
        out = corrupt(ds, p, derive_seed(7, "dtest-cor"))
        assert int(out.corrupted.sum()) == expect


def test_corrupt_k_zero_is_identity():
    p = proc(2, seed=8, k_percent=0.0)
    ds = generate_uncorrupted(p, 40, derive_seed(8, "dtest-gen"))
    out = corrupt(ds, p, derive_seed(8, "dtest-cor"))
    assert np.array_equal(out.ys_prime, ds.ys_true)
    assert not out.corrupted.any()


def test_corrupt_needs_true_labels():
    ds = Dataset(np.zeros((5, 2)), np.zeros(5))
    with pytest.raises(ValueError):
        corrupt(ds, proc(2, seed=9), 0)


def test_corrupt_untouched_rows_are_bit_equal():
    p = proc(3, seed=10, k_percent=30.0)
    ds = generate_uncorrupted(p, 100, derive_seed(10, "dtest-gen"))
    out = corrupt(ds, p, derive_seed(10, "dtest-cor"))
    clean = ~out.corrupted
    assert np.array_equal(out.ys_prime[clean], ds.ys_true[clean])
    assert np.array_equal(out.xs, ds.xs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.sampled_from([10.0, 50.0, 90.0]))
def test_corrupt_moves_labels_only_downward(seed, k):
    p = SyntheticProcess.draw(2, derive_seed(seed, "dtest-h-proc"), k_percent=k)
    ds = generate_uncorrupted(p, 60, derive_seed(seed, "dtest-h-gen"))
    out = corrupt(ds, p, derive_seed(seed, "dtest-h-cor"))
    assert np.all(out.ys_prime <= out.ys_true)
    moved = out.ys_prime < out.ys_true
    assert np.array_equal(moved, out.corrupted)


def test_strict_mode_magnitudes_dominate_symmetric_noise():
    p = proc(3, seed=11, k_percent=60.0, mode="strict", corruption_scale=2.0)
    ds = generate_uncorrupted(p, 400, derive_seed(11, "dtest-gen"))
    out = corrupt(ds, p, derive_seed(11, "dtest-cor"))
    eps_sym = out.ys_true - p.oracle(out.xs)
    mag = out.ys_true - out.ys_prime
    sel = out.corrupted
    assert np.all(mag[sel] > 2.0 * np.abs(eps_sym[sel]))
    # consequence: a corrupted label always sits strictly below the oracle
    assert np.all(out.ys_prime[sel] < p.oracle(out.xs[sel]))


def test_corrupt_is_seed_deterministic():
    p = proc(2, seed=12, k_percent=40.0)
    ds = generate_uncorrupted(p, 50, derive_seed(12, "dtest-gen"))
    a = corrupt(ds, p, 7)
    b = corrupt(ds, p, 7)
    c = corrupt(ds, p, 8)
    assert np.array_equal(a.ys_prime, b.ys_prime)
    assert not np.array_equal(a.ys_prime, c.ys_prime)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def test_standardize_centers_and_scales_train():
    rng = np.random.default_rng(13)
    train_ds = Dataset(rng.standard_normal((80, 3)) * 5 + 2, rng.standard_normal(80))
    out, _, stats = standardize(train_ds)
    assert np.allclose(out.xs.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.xs.std(axis=0), 1.0, atol=1e-12)
    assert np.allclose(stats.apply(train_ds.xs), out.xs)


def test_standardize_constant_column_maps_to_zero():
    xs = np.ones((10, 2))
    xs[:, 1] = np.arange(10)
    ds = Dataset(xs, np.zeros(10))
    out, _, _ = standardize(ds)
    assert np.all(out.xs[:, 0] == 0.0)


def test_standardize_uses_train_statistics_for_others():
    rng = np.random.default_rng(14)
    train_ds = Dataset(rng.standard_normal((60, 2)), rng.standard_normal(60))
    test_ds = Dataset(rng.standard_normal((30, 2)) + 10.0, rng.standard_normal(30))
    _, [mapped], stats = standardize(train_ds, (test_ds,))
    assert np.allclose(mapped.xs, stats.apply(test_ds.xs))
    # a shifted split keeps its shift: no statistics leak from the test split
    assert mapped.xs.mean() > 5.0


def test_standardize_leaves_labels_alone():
    rng = np.random.default_rng(15)
    p = proc(2, seed=16, k_percent=50.0)
    ds = corrupt(generate_uncorrupted(p, 40, 1), p, 2)
    out, _, _ = standardize(ds)
    assert np.array_equal(out.ys_prime, ds.ys_prime)
    assert np.array_equal(out.ys_true, ds.ys_true)
    assert np.array_equal(out.corrupted, ds.corrupted)


def test_feature_stats_floor_on_constant_column():
    stats = feature_stats(np.ones((5, 1)))
    assert stats.std[0] > 0.0


# ---------------------------------------------------------------------------
# cross-validation splits
# ---------------------------------------------------------------------------

def test_split_cv_shapes_and_coverage():
    p = proc(2, seed=17, k_percent=0.0)
    ds = generate_uncorrupted(p, 103, derive_seed(17, "dtest-gen"))
    splits = split_cv(ds, folds=5, val_fraction=0.2, seed=3)
    assert len(splits) == 5
    seen_test = []
    for tr, va, te in splits:
        assert len(tr) + len(va) + len(te) == 103
        assert len(va) == round(0.2 * (103 - len(te)))
        seen_test.append(te.xs)
    # the five test blocks tile the dataset exactly once
    stacked = np.vstack(seen_test)
    assert stacked.shape[0] == 103
    joined = {tuple(r) for r in stacked}
    assert len(joined) == 103


def test_split_cv_keeps_splits_disjoint():
    ds = Dataset(np.arange(40, dtype=float)[:, None], np.zeros(40))
    for tr, va, te in split_cv(ds, folds=4, val_fraction=0.25, seed=1):
        ids = np.concatenate([tr.xs[:, 0], va.xs[:, 0], te.xs[:, 0]])
        assert np.unique(ids).size == 40


def test_split_cv_excludes_corrupted_rows_from_test():
    p = proc(2, seed=18, k_percent=50.0)
    ds = corrupt(generate_uncorrupted(p, 90, 4), p, 5)
    lookup = {tuple(r): bool(c) for r, c in zip(ds.xs, ds.corrupted)}
    total_test = 0
    for _tr, _va, te in split_cv(ds, folds=3, val_fraction=0.2, seed=6):
        assert not any(lookup[tuple(r)] for r in te.xs)
        total_test += len(te)
    assert total_test == 90 - int(ds.corrupted.sum())


def test_split_cv_validation_carveout_bounds():
    ds = Dataset(np.arange(10, dtype=float)[:, None], np.zeros(10))
    # tiny val_fraction still yields at least one validation row
    for tr, va, te in split_cv(ds, folds=2, val_fraction=0.01, seed=0):
        assert len(va) == 1
        assert len(tr) >= 1


def test_split_cv_is_seed_deterministic():
    ds = Dataset(np.random.default_rng(19).standard_normal((30, 2)), np.zeros(30))
    a = split_cv(ds, 3, 0.2, seed=9)
    b = split_cv(ds, 3, 0.2, seed=9)
    for (ta, va_, _), (tb, vb, _) in zip(a, b):
        assert np.array_equal(ta.xs, tb.xs)
        assert np.array_equal(va_.xs, vb.xs)


def test_split_cv_argument_validation():
    ds = Dataset(np.zeros((10, 1)), np.zeros(10))
    with pytest.raises(ValueError):
        split_cv(ds, folds=1, val_fraction=0.2, seed=0)
    with pytest.raises(ValueError):
        split_cv(ds, folds=11, val_fraction=0.2, seed=0)
    with pytest.raises(ValueError):
        split_cv(ds, folds=2, val_fraction=0.0, seed=0)
    with pytest.raises(ValueError):
        split_cv(ds, folds=2, val_fraction=1.0, seed=0)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("with_true,with_mask", [(False, False), (True, False), (True, True)])
def test_csv_roundtrip_bit_exact(tmp_path, with_true, with_mask):
    rng = np.random.default_rng(20)
    n = 17
    ds = Dataset(
        rng.standard_normal((n, 3)) * np.pi,
        rng.standard_normal(n) / 3.0,
        rng.standard_normal(n) if with_true else None,
        rng.random(n) < 0.4 if with_mask else None,
    )
    path = os.path.join(tmp_path, "ds.csv")
    ds.to_csv(path)
    back = Dataset.from_csv(path)
    assert np.array_equal(back.xs, ds.xs)
    assert np.array_equal(back.ys_prime, ds.ys_prime)
    if with_true:
        assert np.array_equal(back.ys_true, ds.ys_true)
    else:
        assert back.ys_true is None
    if with_mask:
        assert np.array_equal(back.corrupted, ds.corrupted)
    else:
        assert back.corrupted is None


def test_csv_text_layout():
    ds = Dataset(np.array([[1.5, -2.0]]), np.array([0.25]))
    text = ds.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "x0,x1,y_prime"
    assert lines[1].split(",")[0] == "1.5"
    assert text.endswith("\n")


def test_from_csv_rejects_malformed_headers(tmp_path):
    for header, row in [
        ("a,b,y_prime", "1,2,3"),
        ("x0,x1", "1,2"),
        ("x0,y_true", "1,2"),
        ("x0,y_prime,extra", "1,2,3"),
    ]:
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write(header + "\n" + row + "\n")
        with pytest.raises(ValueError):
            Dataset.from_csv(path)


def test_table_codec_round_trips_float64_bits(tmp_path):
    values = np.array([-0.0, 5e-324, 0.1, 1.7976931348623157e308])
    path = os.path.join(tmp_path, "t.csv")
    with open(path, "w") as fh:
        fh.write(table_text(["a", "b"], [(v, -v) for v in values]))
    header, rows = read_table(path)
    assert header == ["a", "b"]
    assert rows.dtype == np.float64
    assert rows[:, 0].tobytes() == values.tobytes()
    assert rows[:, 1].tobytes() == (-values).tobytes()
    with open(path, "w") as fh:
        fh.write("1.5,2\n3,4\n")
    header, rows = read_table(path)
    assert header is None
    assert rows.tolist() == [[1.5, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("text", ["", "a,b\n", "a,b\n1,2\n3,oops\n"],
                         ids=["empty", "header-only", "non-numeric-row"])
def test_read_table_errors_name_the_path(tmp_path, text):
    path = os.path.join(tmp_path, "bad-table.csv")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError, match="bad-table.csv"):
        read_table(path)


def test_dataset_rejects_non_finite_values():
    xs, ys = np.zeros((3, 2)), np.zeros(3)
    bad_x = xs.copy()
    bad_x[1, 1] = np.inf
    with pytest.raises(ValueError, match="x1"):
        Dataset(bad_x, ys)
    with pytest.raises(ValueError, match="y_prime"):
        Dataset(xs, np.array([0.0, np.nan, 0.0]))
    with pytest.raises(ValueError, match="y_true"):
        Dataset(xs, ys, np.array([0.0, 0.0, -np.inf]))


def test_from_csv_rejects_a_nan_label(tmp_path):
    path = os.path.join(tmp_path, "nan.csv")
    with open(path, "w") as fh:
        fh.write("x0,y_prime\n1.0,2.0\n3.0,nan\n")
    with pytest.raises(ValueError, match="y_prime"):
        Dataset.from_csv(path)


def test_dataset_subset_carries_all_columns():
    p = proc(2, seed=21, k_percent=50.0)
    ds = corrupt(generate_uncorrupted(p, 20, 1), p, 2)
    sub = ds.subset(np.array([3, 5, 7]))
    assert len(sub) == 3
    assert np.array_equal(sub.ys_true, ds.ys_true[[3, 5, 7]])
    assert np.array_equal(sub.corrupted, ds.corrupted[[3, 5, 7]])


# ---------------------------------------------------------------------------
# sliding-window features
# ---------------------------------------------------------------------------

def test_window_features_constant_series():
    out = window_features(np.full(12, 3.0), window_len=4, stride=2)
    assert out.shape == (5, 7)
    assert np.allclose(out[:, 0], 3.0)  # mean
    assert np.allclose(out[:, 1], 0.0)  # std
    assert np.allclose(out[:, 2:], 3.0)  # all quantiles


def test_window_features_known_window():
    out = window_features(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 5, 1)
    assert out.shape == (1, 7)
    assert out[0, 0] == 3.0
    assert out[0, 1] == pytest.approx(np.sqrt(2.0))
    assert out[0, 4] == 3.0  # median


def test_window_features_row_count_example():
    out = window_features(np.arange(10.0), window_len=4, stride=3)
    assert out.shape == (3, 7)


def test_window_features_multichannel_layout():
    series = np.stack([np.arange(8.0), np.arange(8.0) * 10.0], axis=1)
    out = window_features(series, window_len=4, stride=4)
    assert out.shape == (2, 14)
    # channel blocks are independent: second block is ten times the first
    assert np.allclose(out[:, 7:], out[:, :7] * 10.0)


@given(
    t=st.integers(1, 60),
    w=st.integers(1, 60),
    s=st.integers(1, 10),
)
def test_window_features_row_count_property(t, w, s):
    series = np.zeros(t)
    if w > t:
        with pytest.raises(ValueError):
            window_features(series, w, s)
    else:
        assert window_features(series, w, s).shape[0] == (t - w) // s + 1


def test_window_features_argument_validation():
    with pytest.raises(ValueError):
        window_features(np.zeros(5), 0, 1)
    with pytest.raises(ValueError):
        window_features(np.zeros(5), 2, 0)
