"""Tests for the hand-rolled MLP, Adam, soft update and squashed Gaussian."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlbench.nn import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    MlpParams,
    Workspace,
    adam_step,
    init_adam,
    init_mlp_params,
    mlp_backward,
    mlp_forward,
    soft_update,
    squashed_gaussian_action,
    squashed_gaussian_sample,
    zeros_like_grads,
)
import oracles
from oracles import (
    PARAM_FIELDS,
    assert_grad_close,
    clone_params,
    fd_param_gradient,
    naive_adam_single,
    naive_mlp_forward,
    squashed_density_quadrature,
    squashed_log_prob_reference,
)


def zero_params(n_in: int, hidden: int, n_out: int) -> MlpParams:
    return MlpParams(
        w1=np.zeros((hidden, n_in)),
        b1=np.zeros(hidden),
        w2=np.zeros((hidden, hidden)),
        b2=np.zeros(hidden),
        w3=np.zeros((n_out, hidden)),
        b3=np.zeros(n_out),
    )


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_zero_params_returns_output_bias():
    p = zero_params(3, 8, 2)
    out, _ = mlp_forward(p, np.array([0.5, -2.0, 7.0]))
    assert np.array_equal(out, np.zeros(2))
    p.b3[:] = [1.5, -0.25]
    out, _ = mlp_forward(p, np.array([0.5, -2.0, 7.0]))
    assert np.array_equal(out, p.b3)


def test_forward_relu_kills_negative_preactivations():
    h = 64
    p = zero_params(1, h, 1)
    p.w1[:, 0] = 1.0
    p.w2[:] = np.eye(h)
    p.w3[0, :] = 1.0
    out, _ = mlp_forward(p, np.array([-1.0]))
    assert out[0] == 0.0
    # the same wiring passes a positive input straight through
    out, _ = mlp_forward(p, np.array([0.5]))
    assert out[0] == pytest.approx(0.5 * h)


def test_forward_matches_naive_loop():
    rng = np.random.default_rng(42)
    for n_in, h, n_out in [(4, 8, 3), (4, 64, 1), (1, 2, 5)]:
        p = init_mlp_params(n_in, n_out, rng, hidden=h)
        x = rng.normal(size=n_in)
        got, _ = mlp_forward(p, x)
        want = naive_mlp_forward(p, x)
        denom = max(float(np.max(np.abs(want))), 1e-12)
        assert float(np.max(np.abs(got - want))) / denom < 1e-12


def test_forward_batch_matches_per_row():
    rng = np.random.default_rng(7)
    p = init_mlp_params(5, 3, rng, hidden=16)
    xb = rng.normal(size=(9, 5))
    got, _ = mlp_forward(p, xb)
    assert got.shape == (9, 3)
    # batched matmul may accumulate in a different order than the vector path,
    # so equality is up to last-bit rounding, not bitwise
    for r in range(9):
        row, _ = mlp_forward(p, xb[r])
        assert np.allclose(got[r], row, rtol=1e-14, atol=1e-16)


def test_forward_shape_error():
    p = zero_params(3, 4, 1)
    with pytest.raises(ValueError):
        mlp_forward(p, np.zeros(5))


def test_forward_deterministic():
    rng = np.random.default_rng(0)
    p = init_mlp_params(6, 2, rng, hidden=32)
    x = rng.normal(size=6)
    a, _ = mlp_forward(p, x)
    b, _ = mlp_forward(p, x)
    assert np.array_equal(a, b)


def test_init_bounds_and_seeding():
    p = init_mlp_params(4, 2, np.random.default_rng(3), hidden=64)
    q = init_mlp_params(4, 2, np.random.default_rng(3), hidden=64)
    for f in PARAM_FIELDS:
        assert np.array_equal(getattr(p, f), getattr(q, f))
    assert np.max(np.abs(p.w1)) <= 1.0 / math.sqrt(4)
    assert np.max(np.abs(p.b1)) <= 1.0 / math.sqrt(4)
    assert np.max(np.abs(p.w2)) <= 1.0 / math.sqrt(64)
    assert np.max(np.abs(p.w3)) <= 1.0 / math.sqrt(64)
    assert sum(a.size for a in p.arrays()) == 4 * 64 + 64 + 64 * 64 + 64 + 64 * 2 + 2


@settings(deadline=None, max_examples=60)
@given(
    dims=st.sampled_from([(10, 4), (14, 2), (14, 4), (26, 2), (50, 2), (50, 4), (3, 1)]),
    hidden=st.sampled_from([1, 8, 64]),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_vector_forward_and_backward_are_row_zero_of_a_one_row_batch(dims, hidden, seed, scale):
    # the vector path runs x @ w.T on the vector as given; its output,
    # cached activations and gradients must have the bits of the same
    # input as a one-row batch
    n_in, n_out = dims
    rng = np.random.default_rng(seed)
    p = init_mlp_params(n_in, n_out, rng, hidden=hidden)
    x = scale * rng.normal(size=n_in)
    upstream = rng.normal(size=n_out)
    y, cache = mlp_forward(p, x)
    yb, cache_b = mlp_forward(p, x[None])
    assert y.shape == (n_out,) and yb.shape == (1, n_out)
    assert y.tobytes() == yb[0].tobytes()
    for f in ("x", "z1", "a1", "z2", "a2"):
        assert getattr(cache, f).tobytes() == getattr(cache_b, f)[0].tobytes(), f
    grads, dx = mlp_backward(p, cache, upstream)
    grads_b, dx_b = mlp_backward(p, cache_b, upstream[None])
    assert dx.shape == (n_in,) and dx.tobytes() == dx_b[0].tobytes()
    for f in PARAM_FIELDS:
        assert getattr(grads, f).tobytes() == getattr(grads_b, f).tobytes(), f


def test_forward_rejects_inputs_of_other_ranks():
    p = zero_params(3, 4, 1)
    for x in (np.zeros(()), np.zeros((1, 1, 3)), np.zeros((2, 4))):
        with pytest.raises(ValueError):
            mlp_forward(p, x)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(11)
    p = init_mlp_params(4, 3, rng, hidden=8)
    _, cache = mlp_forward(p, rng.normal(size=4))
    grads, dx = mlp_backward(p, cache, np.zeros(3))
    for f in PARAM_FIELDS:
        assert np.all(getattr(grads, f) == 0.0)
    assert np.all(dx == 0.0)


def test_backward_scalar_chain_rule():
    # one active linear unit per layer: y = w3 * relu(w2 * relu(w1 * x))
    p = zero_params(1, 1, 1)
    p.w1[0, 0] = 2.0
    p.w2[0, 0] = 1.0
    p.w3[0, 0] = 1.0
    x = np.array([3.0])
    out, cache = mlp_forward(p, x)
    assert out[0] == pytest.approx(6.0)
    grads, dx = mlp_backward(p, cache, np.array([1.0]))
    assert grads.w1[0, 0] == pytest.approx(3.0)
    assert dx[0] == pytest.approx(2.0)


def test_backward_matches_finite_differences_dim4():
    rng = np.random.default_rng(2024)
    p = init_mlp_params(4, 2, rng, hidden=6)
    x = rng.normal(size=4)
    upstream = rng.normal(size=2)
    _, cache = mlp_forward(p, x)
    grads, dx = mlp_backward(p, cache, upstream)

    def loss(q: MlpParams) -> float:
        out, _ = mlp_forward(q, x)
        return float(upstream @ out)

    fd = fd_param_gradient(loss, clone_params(p))
    for f in PARAM_FIELDS:
        assert_grad_close(getattr(grads, f), fd[f])
    # input gradient by direct perturbation
    eps = 1e-5
    fd_x = np.zeros_like(x)
    for k in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[k] += eps
        xm[k] -= eps
        fd_x[k] = (loss_at(p, xp, upstream) - loss_at(p, xm, upstream)) / (2 * eps)
    assert_grad_close(dx, fd_x)
    assert_partial_backward_agrees(p, cache, upstream, grads, dx, slice(2, 4))


def assert_partial_backward_agrees(p, cache, upstream, grads, dx, cols):
    # parameter gradients alone: the same bits as the full call's
    only_grads, no_dx = mlp_backward(p, cache, upstream, input_cols=None)
    assert no_dx is None
    for f in PARAM_FIELDS:
        assert np.array_equal(getattr(only_grads, f), getattr(grads, f))
    # a column slice of the input gradient alone
    no_grads, dx_cols = mlp_backward(p, cache, upstream, param_grads=False, input_cols=cols)
    assert no_grads is None
    assert dx_cols.shape == dx[..., cols].shape
    np.testing.assert_allclose(dx_cols, dx[..., cols], rtol=1e-12, atol=0.0)
    assert mlp_backward(p, cache, upstream, param_grads=False, input_cols=None) == (None, None)


def loss_at(p: MlpParams, x: np.ndarray, upstream: np.ndarray) -> float:
    out, _ = mlp_forward(p, x)
    return float(upstream @ out)


def _relu_margin(p: MlpParams, x: np.ndarray) -> float:
    _, cache = mlp_forward(p, x)
    return min(float(np.min(np.abs(cache.z1))), float(np.min(np.abs(cache.z2))))


def test_gradient_suite_100_random_triples():
    # central differences are only a valid oracle away from the ReLU kinks,
    # so draws whose pre-activations sit within the FD step are skipped
    dims = [1, 2, 4, 8]
    done = 0
    seed = 0
    while done < 100:
        rng = np.random.default_rng(seed)
        seed += 1
        n_in = dims[seed % 4]
        h = dims[(seed // 4) % 4]
        n_out = dims[(seed // 16) % 4]
        p = init_mlp_params(n_in, n_out, rng, hidden=h)
        x = rng.normal(size=n_in)
        if _relu_margin(p, x) < 1e-3:
            continue
        upstream = rng.normal(size=n_out)
        _, cache = mlp_forward(p, x)
        grads, _ = mlp_backward(p, cache, upstream)
        fd = fd_param_gradient(lambda q: loss_at(q, x, upstream), clone_params(p))
        for f in PARAM_FIELDS:
            assert_grad_close(getattr(grads, f), fd[f])
        done += 1
    assert done == 100


def test_backward_batch_sums_per_row_grads():
    rng = np.random.default_rng(9)
    p = init_mlp_params(3, 2, rng, hidden=8)
    xb = rng.normal(size=(4, 3))
    up = rng.normal(size=(4, 2))
    _, cache = mlp_forward(p, xb)
    grads, dx = mlp_backward(p, cache, up)
    assert_partial_backward_agrees(p, cache, up, grads, dx, slice(1, 3))
    acc = {f: np.zeros_like(getattr(p, f)) for f in PARAM_FIELDS}
    for r in range(4):
        _, c1 = mlp_forward(p, xb[r])
        g1, dx1 = mlp_backward(p, c1, up[r])
        for f in PARAM_FIELDS:
            acc[f] += getattr(g1, f)
        assert np.allclose(dx[r], dx1, rtol=1e-12, atol=1e-14)
    for f in PARAM_FIELDS:
        assert np.allclose(getattr(grads, f), acc[f], rtol=1e-12, atol=1e-14)
    # a 12-agent critic's shape (batch 1024, input 624) and one action slot
    pc = init_mlp_params(624, 1, rng, hidden=64)
    _, cache = mlp_forward(pc, rng.normal(size=(1024, 624)))
    up = np.full((1024, 1), -1.0 / 1024)
    grads, dx = mlp_backward(pc, cache, up)
    assert_partial_backward_agrees(pc, cache, up, grads, dx, slice(600, 602))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_grad_is_identity():
    rng = np.random.default_rng(5)
    p = init_mlp_params(3, 2, rng, hidden=4)
    before = clone_params(p)
    state = init_adam(p)
    g = zeros_like_grads(p)
    for _ in range(5):
        adam_step(state, p, g)
    assert state.t == 5
    for f in PARAM_FIELDS:
        assert np.array_equal(getattr(p, f), getattr(before, f))


def test_adam_scalar_first_step_hand_value():
    p = zero_params(1, 1, 1)
    state = init_adam(p)
    g = zeros_like_grads(p)
    g.w1[0, 0] = 1.0
    adam_step(state, p, g)
    assert state.t == 1
    # m_hat = 1, v_hat = 1 after bias correction: step = lr / (1 + eps)
    assert p.w1[0, 0] == pytest.approx(-0.01, abs=1e-9)
    want, *_ = naive_adam_single(0.0, 1.0, 0.01, 0.9, 0.999, 1e-8, 0.0, 0.0, 0)
    assert p.w1[0, 0] == pytest.approx(want, abs=1e-15)


def test_adam_monotone_under_constant_grad():
    p = zero_params(1, 1, 1)
    state = init_adam(p)
    g = zeros_like_grads(p)
    g.w1[0, 0] = 1.0
    seen = [0.0]
    for _ in range(3):
        adam_step(state, p, g)
        seen.append(float(p.w1[0, 0]))
    assert all(b < a for a, b in zip(seen, seen[1:]))


def test_adam_matches_scalar_reference_trajectory():
    rng = np.random.default_rng(17)
    p = zero_params(1, 1, 1)
    p.w1[0, 0] = 0.3
    state = init_adam(p)
    ref_p, ref_m, ref_v, ref_t = 0.3, 0.0, 0.0, 0
    for _ in range(20):
        gval = float(rng.normal())
        g = zeros_like_grads(p)
        g.w1[0, 0] = gval
        adam_step(state, p, g)
        ref_p, ref_m, ref_v, ref_t = naive_adam_single(
            ref_p, gval, 0.01, 0.9, 0.999, 1e-8, ref_m, ref_v, ref_t
        )
        assert p.w1[0, 0] == pytest.approx(ref_p, rel=1e-12, abs=1e-15)
    assert state.t == ref_t == 20


def test_adam_rejects_non_finite_grads():
    p = zero_params(2, 3, 1)
    state = init_adam(p)
    g = zeros_like_grads(p)
    g.w2[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        adam_step(state, p, g)
    g.w2[0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        adam_step(state, p, g)


@pytest.mark.parametrize("bad", [np.nan, np.inf, "shape"])
def test_adam_rejected_step_writes_nothing(bad):
    # w1 and b1 come before w2: a step that updated each field as it checked
    # it would already have written them when w2's gradient fails
    rng = np.random.default_rng(29)
    p = init_mlp_params(3, 2, rng, hidden=4)
    state = init_adam(p)
    g = zeros_like_grads(p)
    for f in PARAM_FIELDS:
        getattr(g, f)[...] = rng.normal(size=getattr(g, f).shape)
    adam_step(state, p, g)
    before = [clone_params(x) for x in (p, state.m, state.v)]
    if bad == "shape":
        g.w2 = np.zeros((4, 5))
    else:
        g.w2[1, 2] = bad
    with pytest.raises((FloatingPointError, ValueError)):
        adam_step(state, p, g)
    assert state.t == 1
    for now, then in zip((p, state.m, state.v), before):
        for f in PARAM_FIELDS:
            assert getattr(now, f).tobytes() == getattr(then, f).tobytes()


def test_adam_second_moment_nonnegative():
    rng = np.random.default_rng(23)
    p = init_mlp_params(2, 1, rng, hidden=3)
    state = init_adam(p)
    for _ in range(4):
        g = zeros_like_grads(p)
        g.w1[:] = rng.normal(size=g.w1.shape)
        adam_step(state, p, g)
    for f in PARAM_FIELDS:
        assert np.all(getattr(state.v, f) >= 0.0)
        assert np.all(np.isfinite(getattr(p, f)))


# ---------------------------------------------------------------------------
# soft update
# ---------------------------------------------------------------------------

def test_soft_update_tau_one_copies_online():
    rng = np.random.default_rng(1)
    target = init_mlp_params(3, 2, rng, hidden=4)
    online = init_mlp_params(3, 2, rng, hidden=4)
    soft_update(target, online, 1.0)
    for f in PARAM_FIELDS:
        assert np.array_equal(getattr(target, f), getattr(online, f))


def test_soft_update_tau_zero_keeps_target():
    rng = np.random.default_rng(2)
    target = init_mlp_params(3, 2, rng, hidden=4)
    online = init_mlp_params(3, 2, rng, hidden=4)
    before = clone_params(target)
    soft_update(target, online, 0.0)
    for f in PARAM_FIELDS:
        assert np.array_equal(getattr(target, f), getattr(before, f))


def test_soft_update_small_tau_arithmetic():
    target = zero_params(1, 1, 1)
    online = zero_params(1, 1, 1)
    online.w1[0, 0] = 1.0
    soft_update(target, online, 0.01)
    assert target.w1[0, 0] == pytest.approx(0.01)


def test_soft_update_rejects_bad_tau():
    p = zero_params(1, 1, 1)
    for tau in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            soft_update(p, p, tau)


def test_soft_update_shape_mismatch_writes_nothing():
    rng = np.random.default_rng(3)
    target = init_mlp_params(3, 2, rng, hidden=4)
    online = init_mlp_params(3, 2, rng, hidden=4)
    online.w3 = np.zeros((3, 4))
    before = clone_params(target)
    with pytest.raises(ValueError, match="target shape"):
        soft_update(target, online, 0.5)
    for f in PARAM_FIELDS:
        assert np.array_equal(getattr(target, f), getattr(before, f))


@settings(deadline=None, max_examples=40)
@given(tau=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
def test_soft_update_convexity(tau, seed):
    rng = np.random.default_rng(seed)
    target = init_mlp_params(2, 2, rng, hidden=3)
    online = init_mlp_params(2, 2, rng, hidden=3)
    new = clone_params(target)
    soft_update(new, online, tau)
    for f in PARAM_FIELDS:
        t = getattr(target, f)
        o = getattr(online, f)
        n = getattr(new, f)
        lo = np.minimum(t, o) - 1e-12
        hi = np.maximum(t, o) + 1e-12
        assert np.all(n >= lo) and np.all(n <= hi)


# ---------------------------------------------------------------------------
# squashed Gaussian sampling
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.sampled_from([(1,), (2,), (5,), (1, 2), (64, 2), (7, 3)]),
)
def test_squashed_sample_matches_allocating_reference(seed, shape):
    # log-stds reach past both clamps, so the clip is exercised on each side
    rng = np.random.default_rng(seed)
    mean = rng.normal(0.0, 3.0, size=shape)
    log_std = rng.uniform(LOG_STD_MIN - 10.0, LOG_STD_MAX + 10.0, size=shape)
    noise = rng.standard_normal(shape)
    action, logp = squashed_gaussian_sample(mean, log_std, noise)
    want_action, want_logp = oracles.squashed_gaussian_sample(mean, log_std, noise)
    assert action.tobytes() == want_action.tobytes()
    assert np.asarray(logp).tobytes() == np.asarray(want_logp).tobytes()
    assert np.shape(logp) == np.shape(want_logp)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.sampled_from([(1,), (2,), (5,), (1, 2), (64, 2), (7, 3)]),
)
def test_squashed_action_matches_sample_bitwise(seed, shape):
    # means large enough to saturate tanh, log-stds past both clamps
    rng = np.random.default_rng(seed)
    mean = rng.normal(0.0, 10.0, size=shape)
    mean.flat[0] = 100.0 * rng.choice([-1.0, 1.0])
    log_std = rng.uniform(LOG_STD_MIN - 10.0, LOG_STD_MAX + 10.0, size=shape)
    noise = rng.standard_normal(shape)
    head = np.concatenate([mean, log_std], axis=-1)
    action = squashed_gaussian_action(head, noise)
    want, _ = squashed_gaussian_sample(mean, log_std, noise)
    assert action.shape == want.shape
    assert action.tobytes() == want.tobytes()
    assert abs(action.flat[0]) == 1.0


@pytest.mark.parametrize("slot, value", [
    (0, np.nan), (0, np.inf), (1, -np.inf), (2, np.nan), (3, np.inf), (2, -np.inf),
])
def test_squashed_action_rejects_non_finite_head(slot, value):
    # slots 0-1 are the mean, 2-3 the log-std; a clamp would hide ±inf log-std
    head = np.zeros(4)
    head[slot] = value
    with pytest.raises(FloatingPointError):
        squashed_gaussian_action(head, np.zeros(2))
    with pytest.raises(FloatingPointError):
        squashed_gaussian_sample(head[:2], head[2:], np.zeros(2))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_squashed_action_rejects_non_finite_noise(value):
    noise = np.zeros((3, 2))
    noise[1, 0] = value
    with pytest.raises(FloatingPointError):
        squashed_gaussian_action(np.zeros((3, 4)), noise)


def test_squashed_zero_noise_center_formula():
    log_std = np.array([0.3, -1.0])
    action, logp = squashed_gaussian_sample(np.zeros(2), log_std, np.zeros(2))
    assert np.array_equal(action, np.zeros(2))
    want = float(np.sum(-log_std - 0.5 * math.log(2.0 * math.pi)))
    want -= 2 * math.log(1.0 - 0.0 + 1e-6)
    assert logp == pytest.approx(want, rel=1e-12)


def test_squashed_tanh_saturation():
    action, _ = squashed_gaussian_sample(
        np.array([20.0]), np.array([-20.0]), np.array([0.0])
    )
    assert abs(action[0] - 1.0) < 1e-8


def test_squashed_log_std_clamp_applied():
    # log_std below the floor behaves exactly like the floor
    a1, lp1 = squashed_gaussian_sample(np.array([0.2]), np.array([-50.0]), np.array([0.7]))
    a2, lp2 = squashed_gaussian_sample(np.array([0.2]), np.array([-20.0]), np.array([0.7]))
    assert np.array_equal(a1, a2)
    assert lp1 == lp2


def test_squashed_matches_change_of_variables_reference():
    rng = np.random.default_rng(77)
    for _ in range(25):
        mean = rng.normal(size=2)
        log_std = rng.uniform(-3.0, 1.0, size=2)
        noise = rng.normal(size=2)
        _, logp = squashed_gaussian_sample(mean, log_std, noise)
        want = squashed_log_prob_reference(mean, log_std, noise)
        assert logp == pytest.approx(want, rel=1e-6)


def test_squashed_reference_density_normalizes():
    # the change-of-variables density itself must integrate to one over (-1, 1)
    for mean, log_std in [(0.0, 0.0), (0.5, 0.2), (-1.2, -0.5)]:
        assert squashed_density_quadrature(mean, log_std) == pytest.approx(1.0, abs=1e-3)


def test_squashed_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        squashed_gaussian_sample(np.array([np.nan]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(FloatingPointError):
        squashed_gaussian_sample(np.array([0.0]), np.array([0.0]), np.array([np.inf]))


def test_squashed_action_range():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a, _ = squashed_gaussian_sample(
            rng.normal(scale=5, size=3), rng.uniform(-5, 5, size=3), rng.normal(size=3)
        )
        assert np.all(a > -1.0) and np.all(a < 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_workspace_passes_match_allocating_passes_and_reuse_their_arrays(dtype):
    # a round's passes write into workspaces kept for the run; they must
    # give the bits of passes that allot their arrays, and a second pass
    # into a workspace must write into the first one's arrays
    rng = np.random.default_rng(11)
    params = init_mlp_params(7, 3, rng, hidden=16).astype(dtype)
    ws = Workspace()
    for k in range(2):
        x = rng.normal(size=(32, 7)).astype(dtype)
        up = rng.normal(size=(32, 3)).astype(dtype)
        y, cache = mlp_forward(params, x)
        grads, dx = mlp_backward(params, cache, up)
        y_ws, cache_ws = mlp_forward(params, x, ws)
        grads_ws, dx_ws = mlp_backward(params, cache_ws, up, ws=ws)
        assert y_ws.tobytes() == y.tobytes()
        assert dx_ws.tobytes() == dx.tobytes()
        for f in vars(cache):
            assert getattr(cache_ws, f).tobytes() == getattr(cache, f).tobytes(), f
        for got, want in zip(grads_ws.arrays(), grads.arrays()):
            assert got.tobytes() == want.tobytes()
        if k == 0:
            first = cache_ws
        else:
            assert all(getattr(cache_ws, f) is getattr(first, f) for f in ("z1", "a1", "z2", "a2"))
    # another workspace has arrays of its own
    _, other = mlp_forward(params, x, Workspace())
    assert not np.shares_memory(other.a1, first.a1)
