import numpy as np
import pytest

from duxwb.errors import DegenerateOutputError, DomainError
from duxwb.mlp import (
    MlpParams,
    angular_loss_batch,
    angular_loss_unit,
    count_params,
    emlp_backward,
    emlp_forward,
    emlp_forward_raw,
    emlp_init,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_forward_trace,
    unit_rows,
)
from duxwb.training import adam_init, adam_step


# ============================================================
# Parameter counting
# ============================================================

@pytest.mark.parametrize(
    "d_in,expected",
    [(15, 354), (9, 300), (12, 327), (16, 363), (4, 255)],
)
def test_count_params(d_in, expected):
    assert count_params(d_in) == expected
    params = emlp_init(d_in, seed=0)
    total = sum(int(np.prod(a.shape)) for a in params.tensors().values())
    assert total == expected


# ============================================================
# Forward
# ============================================================

def _interpretive_forward(params, x):
    """Straight-line scalar evaluation of the four-layer formula."""
    slope = params.leaky_slope
    a = list(x)
    for layer in range(4):
        w = params.weights[layer]
        b = params.biases[layer]
        out = []
        for i in range(w.shape[0]):
            acc = float(b[i])
            for j in range(w.shape[1]):
                acc += float(w[i, j]) * a[j]
            if layer < 3:
                acc = acc if acc >= 0.0 else slope * acc
            out.append(acc)
        a = out
    return np.array(a)


def test_forward_matches_interpretive_evaluator(rng):
    for _ in range(20):
        params = emlp_init(15, seed=int(rng.integers(1 << 16)), neutral_start=False)
        x = rng.standard_normal(15)
        assert np.abs(emlp_forward_raw(params, x) - _interpretive_forward(params, x)).max() < 1e-12


def test_zero_network_raises_degenerate():
    params = emlp_init(15, seed=0)
    for w in params.weights:
        w[:] = 0.0
    for b in params.biases:
        b[:] = 0.0
    assert np.all(emlp_forward_raw(params, np.ones(15)) == 0.0)
    with pytest.raises(DegenerateOutputError):
        emlp_forward(params, np.ones(15))


def test_identity_like_construction():
    # W1 selects def[0:3]; later layers pass positives through unchanged.
    params = emlp_init(15, seed=0)
    for w in params.weights:
        w[:] = 0.0
    for b in params.biases:
        b[:] = 0.0
    params.weights[0][:3, :3] = np.eye(3)
    params.weights[1][:3, :3] = np.eye(3)
    params.weights[2][:3, :3] = np.eye(3)
    params.weights[3][:, :3] = np.eye(3)
    x = np.zeros(15)
    x[:3] = [0.8, 0.1, 0.4]
    raw = emlp_forward_raw(params, x)
    assert np.allclose(raw, x[:3], atol=1e-15)
    ill = emlp_forward(params, x)
    expected = x[:3] / np.linalg.norm(x[:3])
    assert np.allclose(ill.as_array(), expected, atol=1e-12)


def test_forward_determinism(rng):
    params = emlp_init(15, seed=7)
    x = rng.standard_normal(15)
    a = emlp_forward_raw(params, x)
    b = emlp_forward_raw(params, x)
    assert np.array_equal(a, b)


def test_forward_output_unit_norm(rng):
    params = emlp_init(15, seed=3)
    for _ in range(50):
        ill = emlp_forward(params, rng.standard_normal(15))
        assert np.linalg.norm(ill.as_array()) == pytest.approx(1.0, abs=1e-9)


def test_forward_dimension_mismatch():
    params = emlp_init(15, seed=0)
    with pytest.raises(DomainError):
        emlp_forward_raw(params, np.ones(9))


# ============================================================
# Backward
# ============================================================

def test_parallel_prediction_zero_loss_and_gradient():
    params = emlp_init(15, seed=0)
    for w in params.weights:
        w[:] = 0.0
    for b in params.biases:
        b[:] = 0.0
    params.biases[3][:] = [0.3, 0.5, 0.2]
    loss, grads = emlp_backward(params, np.zeros(15), np.array([0.3, 0.5, 0.2]) * 4.0)
    assert loss == pytest.approx(0.0, abs=1e-9)
    gnorm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert gnorm < 1e-6


def _fd_check(params, x, gt, h):
    loss, grads = emlp_backward(params, x, gt)
    tensors = params.tensors()
    worst = 0.0
    for name, arr in tensors.items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp, _ = emlp_backward(params, x, gt)
            arr[idx] = orig - h
            lm, _ = emlp_backward(params, x, gt)
            arr[idx] = orig
            fd = (lp - lm) / (2.0 * h)
            an = grads[name][idx]
            denom = max(abs(fd), abs(an))
            if denom < 1e-8:
                continue
            worst = max(worst, abs(fd - an) / denom)
    return worst


def test_gradients_match_finite_differences_h1e5(rng):
    params = emlp_init(15, seed=11, neutral_start=False)
    x = rng.standard_normal(15)
    gt = np.abs(rng.standard_normal(3)) + 0.1
    assert _fd_check(params, x, gt, 1e-5) < 1e-3


def test_gradients_match_finite_differences_multi_trial():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = emlp_init(15, seed=seed, neutral_start=False)
        x = rng.standard_normal(15)
        gt = np.abs(rng.standard_normal(3)) + 0.1
        assert _fd_check(params, x, gt, 1e-4) < 1e-3


def test_overfit_single_sample():
    rng = np.random.default_rng(4)
    params = emlp_init(15, seed=4)
    x = rng.standard_normal(15)
    gt = np.array([0.9, 0.7, 0.3])
    initial, _ = emlp_backward(params, x, gt)
    state = adam_init(params.tensors(), lr=1e-2)
    params = MlpParams.from_tensors(state.tensors())
    for _ in range(100):
        _, grads = emlp_backward(params, x, gt)
        adam_step(state, grads)
    final, _ = emlp_backward(params, x, gt)
    assert final < 0.1 * initial


def test_backward_rejects_zero_gt():
    params = emlp_init(15, seed=0)
    with pytest.raises(DomainError):
        emlp_backward(params, np.ones(15), np.zeros(3))


def test_backward_degenerate_output_raises():
    params = emlp_init(15, seed=0)
    for w in params.weights:
        w[:] = 0.0
    for b in params.biases:
        b[:] = 0.0
    with pytest.raises(DegenerateOutputError):
        emlp_backward(params, np.ones(15), np.array([1.0, 1.0, 1.0]))


# ============================================================
# Batched paths and loss helper
# ============================================================

def test_batch_forward_matches_single(rng):
    params = emlp_init(15, seed=2)
    xs = rng.standard_normal((8, 15))
    batch = mlp_forward(params, xs)
    for i in range(8):
        assert np.array_equal(batch[i], emlp_forward_raw(params, xs[i]))


def test_batch_gradient_is_sum_of_singles(rng):
    params = emlp_init(15, seed=9, neutral_start=False)
    xs = rng.standard_normal((4, 15))
    gts = np.abs(rng.standard_normal((4, 3))) + 0.1
    raw, trace = mlp_forward_trace(params, xs)
    _, draw, _ = angular_loss_batch(raw, gts)
    batch_grads = mlp_backward(params, trace, draw)
    singles = None
    for i in range(4):
        _, g = emlp_backward(params, xs[i], gts[i])
        singles = g if singles is None else {k: singles[k] + g[k] for k in g}
    for k in batch_grads:
        assert np.abs(batch_grads[k] - singles[k]).max() < 1e-10


def test_angular_loss_flags_degenerate_rows():
    raw = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    gts = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    loss, draw, valid = angular_loss_batch(raw, gts)
    assert valid[0] and not valid[1]
    assert np.isnan(loss[1])
    assert np.all(draw[1] == 0.0)


def test_angular_loss_zero_row_leaves_the_others_unchanged(rng):
    raw = rng.standard_normal((7, 3))
    gts = np.abs(rng.standard_normal((7, 3))) + 0.1
    raw[3] = 0.0
    loss, draw, valid = angular_loss_batch(raw, gts)
    assert valid.tolist() == [True, True, True, False, True, True, True]
    assert np.isnan(loss[3]) and np.all(draw[3] == 0.0)
    loss_ok, draw_ok, valid_ok = angular_loss_batch(raw[valid], gts[valid])
    assert valid_ok.all()
    assert np.array_equal(loss[valid], loss_ok)
    assert np.array_equal(draw[valid], draw_ok)


def test_angular_loss_core_matches_normalizing_wrapper_bitwise(rng):
    raw = rng.standard_normal((32, 3))
    gts = np.abs(rng.standard_normal((32, 3))) + 0.1
    raw[:4] = 3.0 * gts[:4]  # zero error: the acos gradient clamp is active
    raw[4] = -gts[4]         # antipodal: cos clips at -1
    full = angular_loss_batch(raw, gts)
    assert full[2].all()
    for a, b in zip(full, angular_loss_unit(raw, unit_rows(gts))):
        assert np.array_equal(a, b)
    # normalizing a whole set once gives each batch the bits it would get alone
    idx = rng.permutation(32)[:10]
    assert np.array_equal(unit_rows(gts)[idx], unit_rows(gts[idx]))
    for a, b in zip(angular_loss_batch(raw[idx], gts[idx]), angular_loss_unit(raw[idx], unit_rows(gts)[idx])):
        assert np.array_equal(a, b)


def test_angular_loss_rejects_zero_ground_truth():
    raw = np.ones((2, 3))
    with pytest.raises(DomainError):
        angular_loss_batch(raw, np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(DomainError):
        unit_rows(np.zeros(3))


def test_init_mlp_out_dim():
    params = init_mlp(15, 20, seed=0)
    assert params.d_out == 20
    y = mlp_forward(params, np.zeros(15))
    assert y.shape == (20,)
