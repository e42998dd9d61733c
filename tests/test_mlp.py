import numpy as np
import pytest

from duxwb.errors import DegenerateOutputError, DomainError
from duxwb.mlp import (
    LEAKY_SLOPE,
    MlpParams,
    angular_loss_unit,
    count_params,
    emlp_forward,
    emlp_init,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_forward_trace,
    row_norms,
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

def _raw(params, x):
    """Raw output for one feature vector, run as a batch of one."""
    return mlp_forward(params, x[np.newaxis])[0]


def _interpretive_forward(params, x):
    """Straight-line scalar evaluation of the four-layer formula."""
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
                acc = acc if acc >= 0.0 else LEAKY_SLOPE * acc
            out.append(acc)
        a = out
    return np.array(a)


def test_forward_matches_interpretive_evaluator(rng):
    for _ in range(20):
        params = init_mlp(15, 3, int(rng.integers(1 << 16)))
        x = rng.standard_normal(15)
        assert np.abs(_raw(params, x) - _interpretive_forward(params, x)).max() < 1e-12


def test_zero_network_raises_degenerate():
    params = emlp_init(15, seed=0)
    for w in params.weights:
        w[:] = 0.0
    for b in params.biases:
        b[:] = 0.0
    assert np.all(_raw(params, np.ones(15)) == 0.0)
    with pytest.raises(DegenerateOutputError):
        emlp_forward(params, np.ones((1, 15)))


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
    raw = _raw(params, x)
    assert np.allclose(raw, x[:3], atol=1e-15)
    est = emlp_forward(params, x[np.newaxis])
    expected = x[:3] / np.linalg.norm(x[:3])
    assert est.shape == (1, 3)
    assert np.allclose(est[0], expected, atol=1e-12)


def test_forward_determinism(rng):
    params = emlp_init(15, seed=7)
    x = rng.standard_normal(15)
    a = _raw(params, x)
    b = _raw(params, x)
    assert np.array_equal(a, b)


def test_forward_output_unit_norm(rng):
    params = emlp_init(15, seed=3)
    est = emlp_forward(params, rng.standard_normal((50, 15)))
    assert est.shape == (50, 3)
    assert np.all(est >= 0.0)
    assert np.abs(np.linalg.norm(est, axis=1) - 1.0).max() < 1e-9


def test_forward_clamps_then_normalizes_each_row_like_a_vector(rng):
    """Each estimate has the bits of the 1-D clamp-and-normalize of its raw row."""
    params = init_mlp(15, 3, 5)
    xs = rng.standard_normal((64, 15))
    xs = xs[(mlp_forward(params, xs) > 0.0).any(axis=1)]  # rows with no positive component raise
    raw = mlp_forward(params, xs)
    assert len(xs) > 32 and (raw < 0.0).any()  # the clamp is exercised
    est = emlp_forward(params, xs)
    for i in range(len(xs)):
        v = np.maximum(raw[i], 0.0)
        assert np.array_equal(est[i], v / np.linalg.norm(v))


def test_row_norms_match_1d_norm_bitwise(rng):
    v = rng.standard_normal((500, 3)) * rng.uniform(1e-3, 1e3, (500, 1))
    assert np.array_equal(row_norms(v), np.array([np.linalg.norm(r) for r in v]))


def test_forward_dimension_mismatch():
    params = emlp_init(15, seed=0)
    with pytest.raises(DomainError):
        mlp_forward(params, np.ones((1, 9)))


def test_forward_rejects_unbatched_input():
    params = emlp_init(15, seed=0)
    with pytest.raises(DomainError):
        mlp_forward(params, np.ones(15))
    with pytest.raises(DomainError):
        emlp_forward(params, np.ones(15))


# ============================================================
# Backward
# ============================================================

def _loss_and_grads(params, x, gt):
    """One sample's loss (degrees) and gradients, composed as train_emlp runs them."""
    raw, trace = mlp_forward_trace(params, x[np.newaxis])
    loss, draw, _ = angular_loss_unit(raw, unit_rows(gt))
    return float(loss[0]), mlp_backward(params, trace, draw)


def test_parallel_prediction_zero_loss_and_gradient():
    params = emlp_init(15, seed=0)
    for w in params.weights:
        w[:] = 0.0
    for b in params.biases:
        b[:] = 0.0
    params.biases[3][:] = [0.3, 0.5, 0.2]
    loss, grads = _loss_and_grads(params, np.zeros(15), np.array([0.3, 0.5, 0.2]) * 4.0)
    assert loss == pytest.approx(0.0, abs=1e-9)
    gnorm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert gnorm < 1e-6


def _fd_check(params, x, gt, h):
    loss, grads = _loss_and_grads(params, x, gt)
    tensors = params.tensors()
    worst = 0.0
    for name, arr in tensors.items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp, _ = _loss_and_grads(params, x, gt)
            arr[idx] = orig - h
            lm, _ = _loss_and_grads(params, x, gt)
            arr[idx] = orig
            fd = (lp - lm) / (2.0 * h)
            an = grads[name][idx]
            denom = max(abs(fd), abs(an))
            if denom < 1e-8:
                continue
            worst = max(worst, abs(fd - an) / denom)
    return worst


def test_gradients_match_finite_differences_h1e5(rng):
    params = init_mlp(15, 3, 11)
    x = rng.standard_normal(15)
    gt = np.abs(rng.standard_normal(3)) + 0.1
    assert _fd_check(params, x, gt, 1e-5) < 1e-3


def test_gradients_match_finite_differences_multi_trial():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = init_mlp(15, 3, seed)
        x = rng.standard_normal(15)
        gt = np.abs(rng.standard_normal(3)) + 0.1
        assert _fd_check(params, x, gt, 1e-4) < 1e-3


def test_overfit_single_sample():
    rng = np.random.default_rng(4)
    params = emlp_init(15, seed=4)
    x = rng.standard_normal(15)
    gt = np.array([0.9, 0.7, 0.3])
    initial, _ = _loss_and_grads(params, x, gt)
    state = adam_init(params.tensors())
    params = MlpParams.from_tensors(state.tensors())
    for _ in range(100):
        _, grads = _loss_and_grads(params, x, gt)
        adam_step(state, grads, 1e-2)
    final, _ = _loss_and_grads(params, x, gt)
    assert final < 0.1 * initial


def test_backward_rejects_zero_gt():
    params = emlp_init(15, seed=0)
    with pytest.raises(DomainError):
        _loss_and_grads(params, np.ones(15), np.zeros(3))


def test_backward_degenerate_output_raises():
    """A zero output is flagged and gives no gradient; predicting from it raises."""
    params = emlp_init(15, seed=0)
    for w in params.weights:
        w[:] = 0.0
    for b in params.biases:
        b[:] = 0.0
    raw, trace = mlp_forward_trace(params, np.ones((1, 15)))
    loss, draw, valid = angular_loss_unit(raw, unit_rows(np.ones(3)))
    assert not valid[0] and np.isnan(loss[0])
    assert all(np.all(g == 0.0) for g in mlp_backward(params, trace, draw).values())
    with pytest.raises(DegenerateOutputError):
        emlp_forward(params, np.ones((1, 15)))


# ============================================================
# Batched paths and loss helper
# ============================================================

def test_batch_forward_matches_single(rng):
    params = emlp_init(15, seed=2)
    xs = rng.standard_normal((8, 15))
    batch = mlp_forward(params, xs)
    for i in range(8):
        assert np.array_equal(batch[i], _raw(params, xs[i]))


def test_batch_gradient_is_sum_of_singles(rng):
    params = init_mlp(15, 3, 9)
    xs = rng.standard_normal((4, 15))
    gts = np.abs(rng.standard_normal((4, 3))) + 0.1
    raw, trace = mlp_forward_trace(params, xs)
    _, draw, _ = angular_loss_unit(raw, unit_rows(gts))
    batch_grads = mlp_backward(params, trace, draw)
    singles = None
    for i in range(4):
        _, g = _loss_and_grads(params, xs[i], gts[i])
        singles = g if singles is None else {k: singles[k] + g[k] for k in g}
    for k in batch_grads:
        assert np.abs(batch_grads[k] - singles[k]).max() < 1e-10


def test_angular_loss_flags_degenerate_rows():
    raw = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    gts = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    loss, draw, valid = angular_loss_unit(raw, unit_rows(gts))
    assert valid[0] and not valid[1]
    assert np.isnan(loss[1])
    assert np.all(draw[1] == 0.0)


def test_angular_loss_zero_row_leaves_the_others_unchanged(rng):
    raw = rng.standard_normal((7, 3))
    gts = np.abs(rng.standard_normal((7, 3))) + 0.1
    raw[3] = 0.0
    loss, draw, valid = angular_loss_unit(raw, unit_rows(gts))
    assert valid.tolist() == [True, True, True, False, True, True, True]
    assert np.isnan(loss[3]) and np.all(draw[3] == 0.0)
    loss_ok, draw_ok, valid_ok = angular_loss_unit(raw[valid], unit_rows(gts[valid]))
    assert valid_ok.all()
    assert np.array_equal(loss[valid], loss_ok)
    assert np.array_equal(draw[valid], draw_ok)


def test_ground_truths_normalized_once_give_each_batch_its_own_bits(rng):
    raw = rng.standard_normal((32, 3))
    gts = np.abs(rng.standard_normal((32, 3))) + 0.1
    raw[:4] = 3.0 * gts[:4]  # zero error: the acos gradient clamp is active
    raw[4] = -gts[4]         # antipodal: cos clips at -1
    assert angular_loss_unit(raw, unit_rows(gts))[2].all()
    idx = rng.permutation(32)[:10]
    assert np.array_equal(unit_rows(gts)[idx], unit_rows(gts[idx]))
    for a, b in zip(angular_loss_unit(raw[idx], unit_rows(gts[idx])), angular_loss_unit(raw[idx], unit_rows(gts)[idx])):
        assert np.array_equal(a, b)


def test_angular_loss_rejects_zero_ground_truth():
    with pytest.raises(DomainError):
        unit_rows(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(DomainError):
        unit_rows(np.zeros(3))


def test_init_mlp_out_dim():
    params = init_mlp(15, 20, seed=0)
    assert params.d_out == 20
    y = mlp_forward(params, np.zeros((1, 15)))
    assert y.shape == (1, 20)
