"""Model forward/backward passes, initialization, and persistence."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from u2reg import (
    ArchSpec,
    LinearModel,
    MlpModel,
    RbfLinearModel,
    init_model,
    load_model,
    predict,
    rbf_features,
    save_model,
)
from u2reg.models import atomic_write_text, model_from_payload, model_payload
from u2reg.rngutil import derive_rng

from conftest import jacobian_rows, param_jacobian


# ---------------------------------------------------------------------------
# architecture descriptor
# ---------------------------------------------------------------------------

def test_archspec_validation():
    ArchSpec("linear")
    ArchSpec("rbf", sigma=0.5)
    ArchSpec("mlp", hidden=(8,), dropout=0.0)
    with pytest.raises(ValueError):
        ArchSpec("tree")
    with pytest.raises(ValueError):
        ArchSpec("rbf")  # sigma required
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            ArchSpec("rbf", sigma=bad)
    with pytest.raises(ValueError):
        ArchSpec("mlp", hidden=())
    with pytest.raises(ValueError):
        ArchSpec("mlp", hidden=(4,), dropout=1.0)
    with pytest.raises(ValueError):
        ArchSpec("mlp", hidden=(4,), dropout=np.nan)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def test_linear_predict_and_jacobian():
    model = LinearModel(2, np.array([1.0, 2.0, 0.0]))
    assert predict(model, np.array([[3.0, 4.0]])) == pytest.approx([11.0])
    assert np.array_equal(param_jacobian(model, np.array([3.0, 4.0])), [3.0, 4.0, 1.0])


def test_linear_shape_errors():
    with pytest.raises(ValueError):
        LinearModel(2, np.zeros(4))
    model = LinearModel(2)
    with pytest.raises(ValueError):
        predict(model, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        param_jacobian(model, np.zeros((2, 2)))


def test_linear_backward_is_weighted_jacobian_sum():
    rng = np.random.default_rng(3)
    model = LinearModel(4, rng.standard_normal(5))
    X = rng.standard_normal((7, 4))
    w = rng.standard_normal(7)
    _preds, cache = model.forward(model.features(X))
    got = model.backward_weighted(cache, w)
    want = w @ jacobian_rows(model, X)
    assert np.allclose(got, want, atol=1e-14)


# ---------------------------------------------------------------------------
# rbf
# ---------------------------------------------------------------------------

def test_rbf_features_basics():
    bases = np.array([[0.0, 0.0], [1.0, 0.0]])
    phi = rbf_features(np.array([[0.0, 0.0]]), bases, sigma=1.0)
    assert phi[0, 0] == 1.0  # sitting on a base
    assert phi[0, 1] == pytest.approx(np.exp(-0.5))
    far = rbf_features(np.array([[20.0, 0.0]]), np.array([[0.0, 0.0]]), sigma=1.0)
    assert far[0, 0] < 1e-12


def _rbf_by_temporaries(X, bases, sigma):
    """rbf_features as written with full-size temporaries, the reference for its floats."""
    sq = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(bases * bases, axis=1)[None, :]
        - 2.0 * (X @ bases.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * sigma * sigma))


def test_rbf_features_equal_the_full_size_expression_byte_for_byte():
    # 700 bases span two full 256-row chunks and a partial one; X is bases
    # takes numpy's syrk path, one row its gemv path
    rng = np.random.default_rng(11)
    bases = rng.standard_normal((700, 4)) * 2.0
    cases = {
        "other": rng.standard_normal((600, 4)) * 2.0,
        "copy": bases.copy(),
        "same": bases,
        "one row": bases[3:4] + 0.5,
        "empty": np.zeros((0, 4)),
    }
    for sigma in (0.3, 1.0, 7.5):
        for name, X in cases.items():
            got = rbf_features(X, bases, sigma)
            want = _rbf_by_temporaries(X, bases, sigma)
            assert got.shape == want.shape == (len(X), 700), name
            assert got.tobytes() == want.tobytes(), (name, sigma)


def test_rbf_features_peak_is_the_output_plus_one_chunk():
    rng = np.random.default_rng(12)
    X, bases = rng.standard_normal((2000, 5)), rng.standard_normal((1500, 5))
    tracemalloc.start()
    try:
        phi = rbf_features(X, bases, 1.0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # full-size temporaries peaked at three outputs; the slack covers row vectors
    assert peak <= phi.nbytes + 256 * 1500 * 8 + 256 * 1024, peak


def test_rbf_equidistant_points_get_equal_features():
    base = np.array([[0.0, 0.0]])
    pts = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [np.sqrt(2.0), np.sqrt(2.0)]])
    phi = rbf_features(pts, base, sigma=0.8)
    assert np.allclose(phi, phi[0, 0], atol=1e-15)


def test_rbf_model_predict_and_jacobian():
    bases = np.array([[0.0], [2.0]])
    model = RbfLinearModel(bases, sigma=1.0, theta=np.array([1.0, 0.0]))
    got = predict(model, np.array([[0.0]]))
    assert got == pytest.approx([1.0])
    jac = param_jacobian(model, np.array([0.0]))
    assert jac[0] == 1.0
    assert jac[1] == pytest.approx(np.exp(-2.0))


def test_rbf_constructor_errors():
    with pytest.raises(ValueError):
        RbfLinearModel(np.zeros((0, 2)), sigma=1.0)
    with pytest.raises(ValueError):
        RbfLinearModel(np.zeros((3, 2)), sigma=-1.0)
    with pytest.raises(ValueError):
        RbfLinearModel(np.zeros((3, 2)), sigma=np.nan)
    with pytest.raises(ValueError):
        RbfLinearModel(np.zeros((3, 2)), sigma=1.0, theta=np.zeros(4))


# ---------------------------------------------------------------------------
# mlp
# ---------------------------------------------------------------------------

def test_mlp_init_shapes_and_determinism():
    arch = ArchSpec("mlp", hidden=(8, 6), dropout=0.5)
    a = init_model(arch, 5, seed=42)
    b = init_model(arch, 5, seed=42)
    c = init_model(arch, 5, seed=43)
    assert a.theta.size == 5 * 8 + 8 + 8 * 6 + 6 + 6 * 1 + 1
    assert np.array_equal(a.theta, b.theta)
    assert not np.array_equal(a.theta, c.theta)


def test_mlp_init_zero_biases_and_fan_bounded_weights():
    model = init_model(ArchSpec("mlp", hidden=(16, 4), dropout=0.0), 10, seed=7)
    for (win, wout), (W, b) in zip(model._shapes, model._layers(model.theta)):
        limit = np.sqrt(6.0 / (win + wout))
        assert np.all(b == 0.0)
        assert np.all(np.abs(W) <= limit)
        assert np.abs(W).max() > 0.5 * limit  # actually spread out, not collapsed


def test_mlp_predictions_finite():
    model = init_model(ArchSpec("mlp", hidden=(32, 32), dropout=0.5), 6, seed=0)
    X = np.random.default_rng(1).standard_normal((64, 6)) * 3.0
    preds = predict(model, X)
    assert preds.shape == (64,)
    assert np.all(np.isfinite(preds))


def test_mlp_theta_length_mismatch():
    with pytest.raises(ValueError):
        MlpModel(4, (3,), theta=np.zeros(5))


def test_mlp_dropout_masks_density_and_scale():
    dropout = 0.3
    model = init_model(ArchSpec("mlp", hidden=(100,), dropout=dropout), 5, seed=9)
    X = np.random.default_rng(2).standard_normal((100, 5))
    _preds, (_X, _acts, masks) = model.forward(model.features(X), derive_rng(11, "mask-test"))
    mask = masks[0]
    keep = 1.0 - dropout
    assert mask.shape == (100, 100)
    kept = np.count_nonzero(mask)
    sd = np.sqrt(keep * (1 - keep) * mask.size)
    assert abs(kept - keep * mask.size) <= 3.0 * sd
    assert np.allclose(mask[mask > 0], 1.0 / keep)


def test_mlp_dropout_is_seed_deterministic():
    model = init_model(ArchSpec("mlp", hidden=(16, 16), dropout=0.5), 4, seed=5)
    X = np.random.default_rng(3).standard_normal((10, 4))
    p1, _ = model.forward(model.features(X), derive_rng(77, "drop"))
    p2, _ = model.forward(model.features(X), derive_rng(77, "drop"))
    p3, _ = model.forward(model.features(X), derive_rng(78, "drop"))
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)


def test_mlp_eval_mode_has_no_dropout():
    model = init_model(ArchSpec("mlp", hidden=(8,), dropout=0.9), 3, seed=1)
    X = np.random.default_rng(4).standard_normal((6, 3))
    preds, (_X, _acts, masks) = model.forward(model.features(X), rng=None)
    assert masks == [None]
    assert np.array_equal(preds, predict(model, X))


def _mlp_by_temporaries(model, F, rngs, w):
    """forward then backward_weighted written out of place, one new array per operation."""
    keep = 1.0 - model.dropout
    layers = model._layers(model.theta)
    a, acts, masks = F, [F], []
    for W, b in layers[:-1]:
        a = np.maximum(np.matmul(a, W) + b, 0.0)
        if model.theta.ndim == 1:
            mask = (rngs.random(a.shape) < keep) / keep
        else:
            mask = np.stack([(r.random(a.shape[1:]) < keep) / keep for r in rngs])
        a = a * mask
        acts.append(a)
        masks.append(mask)
    W, b = layers[-1]
    preds = (np.matmul(a, W) + b)[..., 0]
    lead = model.theta.shape[:-1]
    delta, grads = w[..., None], []
    for li in range(len(layers) - 1, -1, -1):
        grads = [np.matmul(np.swapaxes(acts[li], -1, -2), delta).reshape(*lead, -1),
                 delta.sum(axis=-2)] + grads
        if li > 0:
            delta = np.matmul(delta, np.swapaxes(layers[li][0], -1, -2))
            delta = delta * masks[li - 1] * (acts[li] > 0)
    return preds, masks, np.concatenate(grads, axis=-1)


def test_mlp_in_place_passes_equal_the_out_of_place_reference():
    rng = np.random.default_rng(41)
    base = MlpModel(4, (6, 5, 3), 0.4)
    single = base.clone_with_theta(rng.standard_normal(base.theta.size))
    block = base.clone_with_theta(rng.standard_normal((3, base.theta.size)))
    F = rng.standard_normal((9, 4))
    for model, feats, w, streams in (
            (single, F, rng.standard_normal(9), lambda: derive_rng(4, "in-place")),
            (block, F, rng.standard_normal((3, 9)),
             lambda: [derive_rng(c, "in-place") for c in range(3)]),
            (block, rng.standard_normal((3, 9, 4)), rng.standard_normal((3, 9)),
             lambda: [derive_rng(c, "in-place") for c in range(3, 6)])):
        preds, cache = model.forward(feats, streams())
        grad = model.backward_weighted(cache, w)
        want_preds, want_masks, want_grad = _mlp_by_temporaries(model, feats, streams(), w)
        assert np.array_equal(preds, want_preds)
        assert all(np.array_equal(m, want) for m, want in zip(cache[2], want_masks))
        assert np.array_equal(grad, want_grad)
        assert np.count_nonzero(grad) and np.count_nonzero(cache[2][0] == 0.0)


# ---------------------------------------------------------------------------
# reverse-mode jacobians against finite differences
# ---------------------------------------------------------------------------

def _fd_jacobian(model, x, h=1e-6):
    base = model.theta.copy()
    out = np.empty_like(base)
    for j in range(base.size):
        up, dn = base.copy(), base.copy()
        up[j] += h
        dn[j] -= h
        fu = predict(model.clone_with_theta(up), x)[0]
        fd = predict(model.clone_with_theta(dn), x)[0]
        out[j] = (fu - fd) / (2 * h)
    return out


@pytest.mark.parametrize("kind", ["linear", "rbf", "mlp"])
def test_param_jacobian_matches_finite_differences(kind):
    rng = np.random.default_rng(12)
    if kind == "linear":
        model = LinearModel(4, rng.standard_normal(5))
    elif kind == "rbf":
        model = RbfLinearModel(rng.standard_normal((5, 3)), 1.3, rng.standard_normal(5))
    else:
        model = init_model(ArchSpec("mlp", hidden=(6, 5), dropout=0.0), 4, seed=8)
        model.theta = model.theta + 0.05 * rng.standard_normal(model.theta.size)
    for _ in range(5):
        x = rng.standard_normal(model.input_dim)
        jac = param_jacobian(model, x)
        fd = _fd_jacobian(model, np.atleast_2d(x))
        assert np.max(np.abs(jac - fd) / (1.0 + np.abs(fd))) < 1e-5


@pytest.mark.parametrize("kind", ["linear", "rbf", "mlp"])
def test_backward_weighted_is_linear_in_weights(kind):
    rng = np.random.default_rng(21)
    if kind == "linear":
        model = LinearModel(3, rng.standard_normal(4))
    elif kind == "rbf":
        model = RbfLinearModel(rng.standard_normal((4, 3)), 0.9, rng.standard_normal(4))
    else:
        model = init_model(ArchSpec("mlp", hidden=(5,), dropout=0.0), 3, seed=2)
    X = rng.standard_normal((8, 3))
    _p, cache = model.forward(model.features(X))
    w1 = rng.standard_normal(8)
    w2 = rng.standard_normal(8)
    lhs = model.backward_weighted(cache, w1 + 2.0 * w2)
    rhs = model.backward_weighted(cache, w1) + 2.0 * model.backward_weighted(cache, w2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("kind", ["linear", "rbf", "mlp"])
def test_a_block_computes_each_cell_bit_for_bit(kind):
    rng = np.random.default_rng(23)
    base = {"linear": LinearModel(3), "rbf": RbfLinearModel(rng.standard_normal((6, 3)), 1.1),
            "mlp": MlpModel(3, (5, 4), 0.25)}[kind]
    block = base.clone_with_theta(rng.standard_normal((3, base.theta.size)))
    cells = [base.clone_with_theta(theta) for theta in block.theta]
    X = rng.standard_normal((7, 3))
    w = rng.standard_normal((3, 7))
    shared = block.features(X)
    per_cell = np.stack([block.features(x) for x in rng.standard_normal((3, 7, 3))])
    for feats in (shared, per_cell):
        # one rng per cell: each cell draws its dropout masks from its own stream
        preds, cache = block.forward(feats, [derive_rng(c, "block") for c in range(3)])
        grads = block.backward_weighted(cache, w)
        for c, cell in enumerate(cells):
            alone, cell_cache = cell.forward(feats if feats is shared else feats[c],
                                             derive_rng(c, "block"))
            assert np.array_equal(preds[c], alone)
            assert np.array_equal(grads[c], cell.backward_weighted(cell_cache, w[c]))
    block_preds = predict(block, X)
    assert block_preds.shape == (3, 7)
    for c, cell in enumerate(cells):
        assert np.array_equal(block_preds[c], predict(cell, X))


# ---------------------------------------------------------------------------
# init_model entry point
# ---------------------------------------------------------------------------

def test_init_model_zero_starts():
    lin = init_model(ArchSpec("linear"), 6, seed=0)
    assert np.all(lin.theta == 0.0)
    bases = np.random.default_rng(0).standard_normal((9, 6))
    rbf = init_model(ArchSpec("rbf", sigma=2.0), 6, seed=0, rbf_bases=bases)
    assert np.all(rbf.theta == 0.0)
    assert rbf.theta.size == 9


def test_init_model_errors():
    with pytest.raises(ValueError):
        init_model(ArchSpec("linear"), 0, seed=0)
    with pytest.raises(ValueError):
        init_model(ArchSpec("rbf", sigma=1.0), 3, seed=0)  # bases missing


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def roundtrip(model, tmp_path, name):
    path = os.path.join(tmp_path, name)
    save_model(model, path)
    loaded, payload = load_model(path)
    return loaded, payload, path


def test_save_load_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    models = [
        LinearModel(3, rng.standard_normal(4)),
        RbfLinearModel(rng.standard_normal((4, 2)), 1.7, rng.standard_normal(4)),
        MlpModel(3, (5, 4), 0.25, rng.standard_normal(3 * 5 + 5 + 5 * 4 + 4 + 4 + 1)),
    ]
    for i, model in enumerate(models):
        loaded, _payload, _ = roundtrip(model, tmp_path, f"m{i}.json")
        assert type(loaded) is type(model)
        assert np.array_equal(loaded.theta, model.theta)  # bit-exact floats
        X = rng.standard_normal((5, model.input_dim))
        assert np.array_equal(predict(loaded, X), predict(model, X))
    mlp = models[2]
    loaded, _payload, _ = roundtrip(mlp, tmp_path, "m2b.json")
    assert loaded.hidden == mlp.hidden and loaded.dropout == mlp.dropout


def test_save_model_extra_metadata(tmp_path):
    model = LinearModel(2, np.array([1.0, -1.0, 0.5]))
    path = os.path.join(tmp_path, "m.json")
    save_model(model, path, extra={"feature_mean": [0.0, 0.0], "note": "hi"})
    _loaded, payload = load_model(path)
    assert payload["note"] == "hi"
    with pytest.raises(ValueError):
        save_model(model, path, extra={"theta": [0.0]})


def test_save_model_writes_what_json_indents(tmp_path):
    rng = np.random.default_rng(43)
    edge = [-0.0, 5e-324, 1e308, 0.1, 1e16]
    models = [
        LinearModel(4, np.array(edge)),
        RbfLinearModel(np.array([edge, edge[::-1]]), 0.9, np.array([1e16, -0.0])),
        RbfLinearModel(np.array([[0.1, -2.5]]), 1.3, np.array([5e-324])),  # one base
        MlpModel(3, (4, 2), 0.25, rng.standard_normal(3 * 4 + 4 + 4 * 2 + 2 + 2 + 1)),
    ]
    extra = {"feature_mean": edge, "note": "hi", "nested": {"theta": [], "bases": None}}
    path = os.path.join(tmp_path, "m.json")
    for model in models:
        for more in (None, extra):
            save_model(model, path, extra=more)
            with open(path, "rb") as fh:
                written = fh.read()
            payload = {**model_payload(model), **(more or {})}
            assert written == (json.dumps(payload, indent=1) + "\n").encode(), (model.kind, more)


def test_save_model_rejects_a_non_finite_theta_or_base_and_writes_nothing(tmp_path):
    path = os.path.join(tmp_path, "m.json")
    for bad in (np.nan, np.inf, -np.inf):
        theta = np.array([0.5, bad, 0.1])
        bases = np.array([[0.5, 0.25], [bad, 1.0]])
        for model, key in ((LinearModel(2, theta), "theta"),
                           (MlpModel(1, (1,), 0.0, theta[:2].tolist() * 2), "theta"),
                           (RbfLinearModel(bases, 1.0), "bases")):
            with pytest.raises(ValueError, match=f"'{key}' holds a non-finite number"):
                save_model(model, path)
            assert os.listdir(tmp_path) == []


def test_unsupported_version_rejected(tmp_path):
    model = LinearModel(1, np.array([2.0, 0.0]))
    payload = model_payload(model)
    payload["format_version"] = 99
    with pytest.raises(ValueError):
        model_from_payload(payload)
    payload["format_version"] = 1
    payload["kind"] = "forest"
    with pytest.raises(ValueError):
        model_from_payload(payload)


def test_load_model_applies_the_archspec_checks(tmp_path):
    path = os.path.join(tmp_path, "mlp.json")
    save_model(MlpModel(2, (3,), 0.25), path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    for key, bad in (("dropout", 1.0), ("dropout", -0.5), ("hidden", [0])):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**payload, key: bad}, fh)
        with pytest.raises(ValueError):
            load_model(path)


def test_model_file_fields_must_have_their_json_types(tmp_path):
    rng = np.random.default_rng(5)
    saved = {
        "linear": LinearModel(2, np.array([0.5, -0.5, 0.1])),
        "rbf": RbfLinearModel(rng.standard_normal((3, 2)), 1.2, rng.standard_normal(3)),
        "mlp": MlpModel(2, (3,), 0.25),
    }
    bad_values = {
        "input_dim": ("2", 2.0, True, None),
        "theta": (5, "0.5", [[0.5, -0.5, 0.1]], [True, False, True]),
        "sigma": ("1.2", [1.2], None),
        "bases": (5, [1.0, 2.0], [["a", 1.0]]),
        "hidden": (5, ["3"], [3.0]),
        "dropout": ("0.25", None, False),
    }
    path = os.path.join(tmp_path, "model.json")
    for kind, model in saved.items():
        save_model(model, path)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        for key in payload.keys() & bad_values.keys():
            for bad in bad_values[key]:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({**payload, key: bad}, fh)
                with pytest.raises(ValueError, match=f"'{key}' must be"):
                    load_model(path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert np.array_equal(load_model(path)[0].theta, model.theta)
    rbf_wrong_width = {**model_payload(saved["rbf"]), "input_dim": 7}
    for bad, match in (([1, 2], "JSON object"), ("model", "JSON object"),
                       (rbf_wrong_width, "input_dim 7 does not match the 2-wide rbf bases")):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        with pytest.raises(ValueError, match=match):
            load_model(path)


def test_model_file_number_lists_are_checked_per_element_type():
    linear = model_payload(LinearModel(2, np.array([0.5, -0.5, 0.1])))
    accepted = model_from_payload({**linear, "theta": [0.5, np.float64(-0.5), 1]})
    assert np.array_equal(accepted.theta, [0.5, -0.5, 1.0])
    for bad in ([0.5, True, 0.1], [0.5, -0.5, np.bool_(True)], [0.5, "0.5", 0.1],
                [0.5, None, 0.1]):
        with pytest.raises(ValueError, match="'theta' must be a list of numbers"):
            model_from_payload({**linear, "theta": bad})
    rbf = model_payload(RbfLinearModel(np.ones((2, 2)), 1.0, np.zeros(2)))
    accepted = model_from_payload({**rbf, "bases": [[1.0, np.float64(2.0)], [3, 4.0]]})
    assert np.array_equal(accepted.bases, [[1.0, 2.0], [3.0, 4.0]])
    for bad in ([[1.0, 2.0], [3.0, False]], [[1.0, 2.0], 3.0]):
        with pytest.raises(ValueError, match="'bases' must be a list of lists of numbers"):
            model_from_payload({**rbf, "bases": bad})


def test_save_is_deterministic_and_atomic(tmp_path):
    model = RbfLinearModel(np.array([[0.5, -0.5]]), 1.1, np.array([0.25]))
    p1 = os.path.join(tmp_path, "a.json")
    p2 = os.path.join(tmp_path, "b.json")
    save_model(model, p1)
    save_model(model, p2)
    with open(p1, "rb") as fh:
        b1 = fh.read()
    with open(p2, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2
    assert not [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
    # overwrite in place keeps the file parseable
    save_model(model, p1)
    json.loads(open(p1, "r", encoding="utf-8").read())


def test_atomic_write_text_lf_newlines(tmp_path):
    path = os.path.join(tmp_path, "t.txt")
    atomic_write_text(path, "a\nb\n")
    with open(path, "rb") as fh:
        assert fh.read() == b"a\nb\n"
