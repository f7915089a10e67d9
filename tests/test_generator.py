import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otzsl.data import UNLABELED
from otzsl.generator import (
    PROB_FLOOR,
    GeneratorParams,
    PredictorParams,
    backward,
    generator_forward,
    init_generator,
    init_predictor,
)
from otzsl.mlp import MlpParams, adam_step, adam_init
from otzsl.ot import cosine_cost_matrix, transition_plan, transport_cost
from otzsl.rng import SeededRng

TWO_CLASS_ATTRS = np.array([[1.0, 0.0], [0.0, 1.0]])


def small_setup(seed, d=3, D=4, hidden=6, n=4, m=5, n_classes=3):
    """Random batch + nets small enough for finite differences."""
    rng = SeededRng(seed)
    g = init_generator(d, D, hidden, rng.split(1))
    f = init_predictor(D, d, hidden, rng.split(2), nca_scale=0.7)
    # nudge output biases so tiny nets cannot emit exact-zero rows
    # (cosine distance is undefined there and rightly refuses)
    g.net.b2 += 0.05
    f.net.b2 += 0.05
    real = rng.split(3).gaussian(n * D).reshape(n, D)
    attrs = rng.split(4).gaussian(n_classes * d).reshape(n_classes, d)
    synth_classes = rng.split(5).integers(n_classes, m)
    synth_attrs = attrs[synth_classes]
    noises = rng.split(6).gaussian(m * d).reshape(m, d)
    real_classes = rng.split(7).integers(n_classes, n)
    plan = rng.split(8).uniform(n * m).reshape(n, m)
    plan /= plan.sum()
    return dict(plan=plan, real=real, real_classes=real_classes,
                synth_attrs=synth_attrs, noises=noises, synth_classes=synth_classes,
                g=g, f=f, attrs=attrs)


def objective_of(s, reg_weight=1.0, **changes):
    """backward() on a small_setup batch, with any of its entries replaced;
    the generated batch comes from a fresh forward of the current weights."""
    s = {**s, **changes}
    return backward(s["plan"], s["real"], s["real_classes"],
                    generator_forward(s["g"], s["synth_attrs"], s["noises"]),
                    s["synth_classes"], s["g"], s["f"], s["attrs"], reg_weight)


def loss_of(s, reg_weight):
    return objective_of(s, reg_weight).total


def identity_predictor(k, nca_scale=0.5):
    """f(x) = x on k-dim features, as relu(x) - relu(-x)."""
    net = MlpParams(np.vstack([np.eye(k), -np.eye(k)]), np.zeros(2 * k),
                    np.hstack([np.eye(k), -np.eye(k)]), np.zeros(k))
    return PredictorParams(net=net, nca_scale=nca_scale)


def objective_at(real, real_classes, generated, synth_classes, f, class_attrs,
                 plan=None, reg_weight=1.0):
    """backward() with every generated row equal to `generated`: the
    generator has zero weights and `generated` as its output bias."""
    real = np.atleast_2d(np.asarray(real, dtype=np.float64))
    generated = np.asarray(generated, dtype=np.float64)
    n, m, d = real.shape[0], len(synth_classes), np.asarray(class_attrs).shape[1]
    g = GeneratorParams(net=MlpParams(np.zeros((1, 2 * d)), np.zeros(1),
                                      np.zeros((generated.size, 1)), generated))
    if plan is None:
        plan = np.full((n, m), 1.0 / (n * m))
    return backward(plan, real, real_classes,
                    generator_forward(g, np.zeros((m, d)), np.zeros((m, d))),
                    synth_classes, g, f, class_attrs, reg_weight)


def nca_probability(pred_attr, class_attrs, target_class, nca_scale):
    """p(target class | predicted attribute), read off backward(): under an
    identity predictor, one real and one generated copy of the prediction
    make the regularizer term -2 log p."""
    pred = np.asarray(pred_attr, dtype=np.float64)
    res = objective_at(pred, [target_class], pred, [target_class],
                       identity_predictor(pred.size, nca_scale), class_attrs)
    return float(np.exp(-res.regularizer_term / 2.0))


# ------------------------------------------------------------------ generator


def test_generator_rejects_odd_input_dim():
    with pytest.raises(ValueError, match="odd"):
        GeneratorParams(net=MlpParams(np.zeros((4, 3)), np.zeros(4),
                                      np.zeros((2, 4)), np.zeros(2)))


def test_generator_forward_zero_net():
    g = GeneratorParams(net=MlpParams(np.zeros((4, 6)), np.zeros(4),
                                      np.zeros((5, 4)), np.zeros(5)))
    out, _ = generator_forward(g, np.ones((2, 3)), np.ones((2, 3)))
    np.testing.assert_array_equal(out, np.zeros((2, 5)))


def test_generator_forward_relu_kill_gives_bias():
    net = MlpParams(-np.ones((2, 4)), np.zeros(2), np.ones((3, 2)),
                    np.array([0.5, -1.0, 2.0]))
    g = GeneratorParams(net=net)
    out, _ = generator_forward(g, np.ones((1, 2)), np.ones((1, 2)))
    np.testing.assert_array_equal(out, [[0.5, -1.0, 2.0]])


def test_generator_forward_matches_scalar_loop():
    g = init_generator(2, 3, 4, SeededRng(1))
    a = np.array([[0.3, -0.7], [-1.2, 0.4]])
    z = np.array([[1.1, 0.2], [0.5, -0.9]])
    out, (x_in, _, _) = generator_forward(g, a, z)
    np.testing.assert_array_equal(x_in, np.hstack([a, z]))  # [attribute; noise]
    net = g.net
    for r in range(2):
        x = np.concatenate([a[r], z[r]])
        hidden = [max(0.0, sum(net.W1[h, j] * x[j] for j in range(4)) + net.b1[h])
                  for h in range(4)]
        for o in range(3):
            want = sum(net.W2[o, h] * hidden[h] for h in range(4)) + net.b2[o]
            assert out[r, o] == pytest.approx(want, abs=1e-12)


def test_generator_forward_dim_mismatch():
    g = init_generator(3, 4, 5, SeededRng(2))
    with pytest.raises(ValueError, match="shape"):
        generator_forward(g, np.ones((1, 3)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="dim"):
        generator_forward(g, np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="rows"):
        generator_forward(g, np.ones(3), np.ones(3))


def test_predictor_requires_positive_scale():
    with pytest.raises(ValueError, match="nca_scale"):
        init_predictor(4, 3, 5, SeededRng(0), nca_scale=0.0)


# ------------------------------------------------------------------- nca term


def test_nca_single_class_probability_one():
    p = nca_probability(np.array([0.2, 0.9]), np.array([[1.0, 1.0]]), 0, 2.0)
    assert p == pytest.approx(1.0)


def test_nca_two_orthogonal_classes_closed_form():
    """Prediction equal to class 0's attribute at scale 0.5: p = 1/(1+e^-0.5)."""
    p = nca_probability(np.array([1.0, 0.0]), TWO_CLASS_ATTRS, 0, 0.5)
    assert p == pytest.approx(1.0 / (1.0 + np.exp(-0.5)), abs=1e-12)
    assert p == pytest.approx(0.62246, abs=5e-6)


def test_nca_symmetric_prediction_splits_evenly():
    mid = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for c in (0, 1):
        assert nca_probability(mid, TWO_CLASS_ATTRS, c, 0.5) == pytest.approx(0.5)


def test_nca_target_out_of_range():
    for target in (2, -2):  # -2 is no sentinel and must not index from the end
        with pytest.raises(ValueError, match="target class"):
            nca_probability(np.array([1.0, 0.0]), TWO_CLASS_ATTRS, target, 0.5)


def test_nca_zero_norm_prediction_errors():
    """Non-zero real and generated features, but a predictor whose output is
    the zero vector: the class-likelihood term must refuse it."""
    f = identity_predictor(2)
    f.net.W2[:] = 0.0
    feat = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="predicted attributes row 0 has zero norm"):
        objective_at(feat, [0], feat, [0], f, TWO_CLASS_ATTRS)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.floats(0.01, 10.0))
@settings(max_examples=80, deadline=None)
def test_nca_probabilities_sum_to_one(seed, n_classes, scale):
    rng = SeededRng(seed)
    attrs = rng.gaussian(n_classes * 3).reshape(n_classes, 3)
    pred = rng.gaussian(3)
    if np.linalg.norm(pred) < 1e-9 or np.any(np.linalg.norm(attrs, axis=1) < 1e-9):
        return
    total = sum(nca_probability(pred, attrs, c, scale) for c in range(n_classes))
    assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- regularizer


def test_regularizer_single_class_is_zero():
    f = init_predictor(3, 2, 4, SeededRng(5))
    res = objective_at(np.ones((2, 3)), [0, 0], np.ones(3), [0, 0], f, np.array([[1.0, 1.0]]))
    assert res.regularizer_term == 0.0


def test_regularizer_half_probability_closed_form():
    """One real + one generated sample, both predicted at p = 1/2: 2 ln 2."""
    mid = np.array([1.0, 1.0])  # equidistant from both class attributes
    res = objective_at(mid, [0], mid, [1], identity_predictor(2), TWO_CLASS_ATTRS)
    assert res.regularizer_term == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


def test_prob_floor_clamp_adds_a_constant_and_no_gradient():
    """At nca_scale 1000 a prediction almost opposite its class attribute has
    log p near -1094, below log(PROB_FLOOR), so it is clamped; the batch's
    other sample, of the class the prediction leans to, has log p exactly 0.
    The regularizer is then exactly -log(PROB_FLOOR)/2, and every gradient
    matches finite differences, which see the clamp as flat."""
    generated = np.array([-1.0, 0.1])
    g = GeneratorParams(net=MlpParams(np.zeros((1, 4)), np.zeros(1),
                                      np.zeros((2, 1)), generated))
    f = identity_predictor(2, nca_scale=1000.0)

    def loss_terms():
        return backward(np.full((1, 2), 0.5), np.array([[1.0, 1.0]]), [UNLABELED],
                        generator_forward(g, np.zeros((2, 2)), np.zeros((2, 2))), [0, 1],
                        g, f, TWO_CLASS_ATTRS, 1.0)

    res = loss_terms()
    assert res.regularizer_term == -np.log(PROB_FLOOR) / 2
    eps = 1e-6
    for block, grad in zip([g.net.b2] + f.net.blocks(), [res.g_grads.b2] + res.f_grads.blocks()):
        for idx in np.ndindex(block.shape):
            old = block[idx]
            block[idx] = old + eps
            up = loss_terms().total
            block[idx] = old - eps
            down = loss_terms().total
            block[idx] = old
            assert grad[idx] == pytest.approx((up - down) / (2 * eps), abs=1e-6), idx


def test_regularizer_duplication_invariance():
    s = small_setup(31)
    base = objective_of(s)
    doubled = objective_of(s, plan=np.tile(s["plan"], (2, 2)) / 4.0,
                           real=np.tile(s["real"], (2, 1)),
                           real_classes=np.tile(s["real_classes"], 2),
                           synth_attrs=np.tile(s["synth_attrs"], (2, 1)),
                           noises=np.tile(s["noises"], (2, 1)),
                           synth_classes=np.tile(s["synth_classes"], 2))
    assert doubled.regularizer_term == pytest.approx(base.regularizer_term, abs=1e-12)
    assert doubled.total == pytest.approx(base.total, abs=1e-12)


def test_regularizer_skips_unlabeled_rows():
    s = small_setup(32)
    with_all = objective_of(s).regularizer_term
    labels = s["real_classes"].copy()
    labels[0] = UNLABELED
    with_hole = objective_of(s, real_classes=labels).regularizer_term
    assert with_hole != pytest.approx(with_all)
    sub = objective_of(s, plan=s["plan"][1:], real=s["real"][1:],
                       real_classes=s["real_classes"][1:]).regularizer_term
    assert with_hole == pytest.approx(sub, abs=1e-12)


def test_regularizer_empty_synth_batch_errors():
    f = init_predictor(3, 2, 4, SeededRng(5))
    with pytest.raises(ValueError, match="empty"):
        objective_at(np.ones((1, 3)), [0], np.ones(3), [], f, TWO_CLASS_ATTRS,
                     plan=np.zeros((1, 0)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_regularizer_non_negative(seed):
    assert objective_of(small_setup(seed)).regularizer_term >= 0.0


# ----------------------------------------------------------------- total loss


def test_total_loss_beta_zero_is_transport_cost():
    s = small_setup(33)
    res = objective_of(s, reg_weight=0.0)
    feats, _ = generator_forward(s["g"], s["synth_attrs"], s["noises"])
    assert res.total == res.transport_term
    assert res.total == pytest.approx(
        transport_cost(s["plan"], cosine_cost_matrix(s["real"], feats)), abs=1e-12)


def test_total_loss_hand_value():
    """Real [1, 0] of class 0 against a generated [1, 1] of class 1 at weight
    0.05: cosine cost 1 - 1/sqrt(2), p = 1/(1 + e^-0.5) and p = 1/2."""
    res = objective_at(np.array([1.0, 0.0]), [0], np.array([1.0, 1.0]), [1],
                       identity_predictor(2), TWO_CLASS_ATTRS,
                       plan=np.array([[1.0]]), reg_weight=0.05)
    want = 1.0 - 1.0 / np.sqrt(2.0) + 0.05 * (np.log1p(np.exp(-0.5)) + np.log(2.0))
    assert res.total == pytest.approx(want, abs=1e-12)


def test_total_loss_zero_everything():
    """A zero plan and a single class: no transport and no class term."""
    f = init_predictor(3, 2, 4, SeededRng(5))
    res = objective_at(np.ones((2, 3)), [0, 0], np.ones(3), [0, 0], f,
                       np.array([[1.0, 1.0]]), plan=np.zeros((2, 2)), reg_weight=0.05)
    assert res.total == 0.0


def test_total_loss_rejects_negative_weight():
    with pytest.raises(ValueError, match="reg_weight"):
        objective_of(small_setup(34), reg_weight=-0.1)


# ------------------------------------------------------------------ gradients


def fd_check(seed, reg_weight, tol=2e-6):
    """Compare every analytic gradient entry against central differences."""
    s = small_setup(seed)
    res = objective_of(s, reg_weight)
    eps = 1e-5
    for owner, grads in (("g", res.g_grads), ("f", res.f_grads)):
        net = s[owner].net
        for name in ("W1", "b1", "W2", "b2"):
            analytic = getattr(grads, name)
            block = getattr(net, name)
            it = np.nditer(block, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = block[idx]
                block[idx] = orig + eps
                up = loss_of(s, reg_weight)
                block[idx] = orig - eps
                down = loss_of(s, reg_weight)
                block[idx] = orig
                fd = (up - down) / (2 * eps)
                scale = max(abs(fd), abs(analytic[idx]), 1e-4)
                assert abs(analytic[idx] - fd) / scale < tol, (owner, name, idx)


@pytest.mark.parametrize("reg_weight", [0.0, 0.05, 1.0])
def test_backward_matches_finite_differences(reg_weight):
    fd_check(seed=101, reg_weight=reg_weight)


def test_backward_with_unlabeled_rows_matches_fd():
    s = small_setup(55)
    s["real_classes"][1] = -1
    res = objective_of(s, 0.5)
    eps = 1e-5
    block = s["f"].net.W2
    idx = (0, 1)
    orig = block[idx]
    block[idx] = orig + eps
    up = loss_of(s, 0.5)
    block[idx] = orig - eps
    down = loss_of(s, 0.5)
    block[idx] = orig
    fd = (up - down) / (2 * eps)
    assert res.f_grads.W2[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)


def test_backward_zero_plan_column_drops_transport_gradient():
    """With beta = 0, a synthetic sample with no plan mass gets no gradient."""
    s = small_setup(77)
    plan = s["plan"].copy()
    plan[:, 2] = 0.0
    res = objective_of(s, 0.0, plan=plan)

    # removing column 2 and its synthetic sample entirely gives the same grads
    keep = [0, 1, 3, 4]
    res_sub = objective_of(s, 0.0, plan=plan[:, keep], synth_attrs=s["synth_attrs"][keep],
                           noises=s["noises"][keep], synth_classes=s["synth_classes"][keep])
    for a, b in zip(res.g_grads.blocks(), res_sub.g_grads.blocks()):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_backward_duplicated_sample_with_split_mass():
    """Duplicating a synthetic sample and halving its plan mass keeps the
    transport gradients identical (beta = 0)."""
    s = small_setup(88)
    plan, attrs_in, noises, classes = s["plan"], s["synth_attrs"], s["noises"], s["synth_classes"]
    dup_plan = np.hstack([plan, plan[:, [0]] / 2.0])
    dup_plan[:, 0] /= 2.0
    dup_attrs = np.vstack([attrs_in, attrs_in[0]])
    dup_noises = np.vstack([noises, noises[0]])
    dup_classes = np.concatenate([classes, classes[[0]]])
    base = objective_of(s, 0.0)
    dup = objective_of(s, 0.0, plan=dup_plan, synth_attrs=dup_attrs, noises=dup_noises,
                       synth_classes=dup_classes)
    for a, b in zip(base.g_grads.blocks(), dup.g_grads.blocks()):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_backward_takes_an_input_gradient_only_for_the_generated_batch(monkeypatch):
    """Of the three backprops (the predictor on the generated and on the
    real batch, then the generator), only the first feeds a gradient on."""
    from otzsl import generator as generator_module
    calls = []
    original = generator_module.mlp_backward

    def spy(params, cache, d_out, input_grad=True):
        calls.append(input_grad)
        return original(params, cache, d_out, input_grad)

    monkeypatch.setattr(generator_module, "mlp_backward", spy)
    objective_of(small_setup(31))
    assert calls == [True, False, False]


def test_backward_plan_shape_mismatch():
    s = small_setup(5)
    with pytest.raises(ValueError, match="plan shape"):
        objective_of(s, 0.0, plan=s["plan"][:, :3])


def test_backward_non_finite_plan_raises_from_the_gradient_blocks():
    # the gradient blocks are MlpParams, whose own check is the one that fires
    s = small_setup(3)
    plan = s["plan"].copy()
    plan[0, 0] = np.nan
    with pytest.raises(ValueError, match="W1 contains a non-finite value") as info:
        objective_of(s, 1.0, plan=plan)
    assert type(info.value) is ValueError


def test_backward_transport_gradient_is_the_whole_array_expression():
    """With the regularizer weighted 0, the generator's gradient is the
    backprop of the transport term's gradient alone: built in place, it has
    the bits of -(P' U - colmass * V) / |xhat|."""
    from otzsl.linalg import unit_rows
    from otzsl.mlp import mlp_backward
    s = small_setup(12, d=5, D=9, hidden=7, n=6, m=8)
    generated = generator_forward(s["g"], s["synth_attrs"], s["noises"])
    xhat, g_cache = generated
    (u, _), (v, norms) = unit_rows(s["real"]), unit_rows(xhat)
    col_mass = (s["plan"] * (u @ v.T)).sum(axis=0)
    d_xhat = -(s["plan"].T @ u - col_mass[:, None] * v) / norms[:, None]
    expected, _ = mlp_backward(s["g"].net, g_cache, d_xhat, input_grad=False)
    got = backward(s["plan"], s["real"], s["real_classes"], generated, s["synth_classes"],
                   s["g"], s["f"], s["attrs"], 0.0).g_grads
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
def test_backward_peak_memory_is_under_twice_its_gradients(labeled):
    """At D=512, hidden 256 and batch 64 (128 generated rows), the gradient
    blocks returned are 2.3 MB. Each large array is dropped at its last use
    and the transport gradient is built in place, so one call holds at most
    twice that; it held 3.1x (2.4x with an unlabeled real batch) when every
    array lived to the end of the call."""
    from tests.conftest import traced_peak
    dim, hidden, attr_dim, b, n_classes = 512, 256, 32, 64, 10
    rng = SeededRng(0)
    g = init_generator(attr_dim, dim, hidden, rng.split(1))
    f = init_predictor(dim, attr_dim, hidden, rng.split(2))
    attrs = (rng.split(3).uniform(n_classes * attr_dim).reshape(n_classes, attr_dim) < 0.5) + 0.0
    attrs[:, 0] = 1.0
    real = rng.split(4).gaussian(b * dim).reshape(b, dim)
    real_classes = np.arange(b) % n_classes if labeled else np.full(b, UNLABELED)
    synth_classes = np.tile(np.arange(b) % n_classes, 2)
    noises = rng.split(5).gaussian(2 * b * attr_dim).reshape(2 * b, attr_dim)
    generated = generator_forward(g, attrs[synth_classes], noises)
    plan = np.zeros((b, 2 * b))
    plan[:, :b] = np.eye(b) / b
    res, peak = traced_peak(backward, plan, real, real_classes, generated, synth_classes,
                            g, f, attrs, 1.0)
    grads = sum(x.nbytes for x in res.g_grads.blocks() + res.f_grads.blocks())
    assert grads > 2_000_000
    assert peak <= 2.0 * grads


def test_scale_invariance_of_cost_under_feature_scaling():
    """The transport cost only sees feature directions."""
    s = small_setup(91)
    feats, _ = generator_forward(s["g"], s["synth_attrs"], s["noises"])
    cost = cosine_cost_matrix(s["real"], feats)
    scaled = feats * np.array([1.0, 3.0, 0.5, 10.0, 2.0])[:, None]
    cost_scaled = cosine_cost_matrix(s["real"], scaled)
    np.testing.assert_allclose(cost, cost_scaled, atol=1e-12)
    assert transport_cost(s["plan"], cost) == pytest.approx(
        transport_cost(s["plan"], cost_scaled), abs=1e-12)


def test_fifty_adam_steps_decrease_loss():
    """Fixed batch, fixed plan: optimizing the objective descends monotonically."""
    s = small_setup(123, d=4, D=8, hidden=16, n=6, m=6, n_classes=4)
    plan = transition_plan(s["synth_classes"], s["synth_classes"]).values
    real = generator_forward(s["g"], s["synth_attrs"], s["noises"])[0] + 0.01
    g, f = s["g"], s["f"]
    state = adam_init(g.net.blocks() + f.net.blocks(), learning_rate=1e-3)
    losses = []
    for _ in range(50):
        res = backward(plan, real, s["synth_classes"],
                       generator_forward(g, s["synth_attrs"], s["noises"]),
                       s["synth_classes"], g, f, s["attrs"], 0.05)
        losses.append(res.total)
        adam_step(g.net.blocks() + f.net.blocks(),
                  res.g_grads.blocks() + res.f_grads.blocks(), state)
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-6), diffs.max()
    assert losses[-1] < losses[0]
