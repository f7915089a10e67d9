import numpy as np
import pytest

from otzsl.mlp import (
    ADAM_CHUNK,
    AdamState,
    MlpParams,
    adam_init,
    adam_step,
    add_grads,
    init_mlp,
    mlp_backward,
    mlp_forward_cache,
)
from otzsl.rng import SeededRng
from tests.conftest import count_finiteness_checks, traced_peak


def random_net(seed, inp=4, hidden=6, out=3):
    return init_mlp(inp, hidden, out, SeededRng(seed))


def test_params_validate_shapes():
    with pytest.raises(ValueError, match="inconsistent"):
        MlpParams(np.zeros((3, 2)), np.zeros(3), np.zeros((4, 5)), np.zeros(4))
    with pytest.raises(ValueError, match="inconsistent"):
        MlpParams(np.zeros((3, 2)), np.zeros(2), np.zeros((4, 3)), np.zeros(4))


def test_params_reject_nonfinite():
    W1 = np.zeros((2, 2))
    W1[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        MlpParams(W1, np.zeros(2), np.zeros((1, 2)), np.zeros(1))


def test_init_bounds_and_zero_biases():
    net = random_net(0, inp=5, hidden=7, out=2)
    s1 = np.sqrt(6.0 / (5 + 7))
    s2 = np.sqrt(6.0 / (7 + 2))
    assert np.all(np.abs(net.W1) < s1)
    assert np.all(np.abs(net.W2) < s2)
    np.testing.assert_array_equal(net.b1, 0.0)
    np.testing.assert_array_equal(net.b2, 0.0)


def test_init_deterministic():
    a, b = random_net(3), random_net(3)
    for x, y in zip(a.blocks(), b.blocks()):
        np.testing.assert_array_equal(x, y)


def test_init_rejects_zero_dim():
    with pytest.raises(ValueError):
        init_mlp(0, 3, 2, SeededRng(0))


def test_forward_zero_net_outputs_bias():
    net = MlpParams(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3)), np.array([1.5, -0.5]))
    out, _ = mlp_forward_cache(net, np.ones((4, 2)))
    np.testing.assert_array_equal(out, np.tile([1.5, -0.5], (4, 1)))


def test_forward_relu_kills_negative_preactivations():
    net = MlpParams(np.array([[1.0]]), np.zeros(1), np.array([[2.0]]), np.zeros(1))
    np.testing.assert_array_equal(mlp_forward_cache(net, np.array([[-3.0]]))[0], [[0.0]])
    np.testing.assert_array_equal(mlp_forward_cache(net, np.array([[3.0]]))[0], [[6.0]])


def test_forward_matches_scalar_loop():
    net = random_net(11)
    x = SeededRng(12).gaussian(2 * 4).reshape(2, 4)
    out, _ = mlp_forward_cache(net, x)
    for i in range(2):
        hidden = [max(0.0, sum(net.W1[h, j] * x[i, j] for j in range(4)) + net.b1[h])
                  for h in range(6)]
        for o in range(3):
            want = sum(net.W2[o, h] * hidden[h] for h in range(6)) + net.b2[o]
            assert out[i, o] == pytest.approx(want, abs=1e-12)


def test_forward_cache_consistent_with_forward():
    net = random_net(4)
    x = SeededRng(5).gaussian(3 * 4).reshape(3, 4)
    out, (cx, pre, hidden) = mlp_forward_cache(net, x)
    np.testing.assert_array_equal(pre, x @ net.W1.T + net.b1)
    np.testing.assert_array_equal(hidden, np.maximum(pre, 0.0))
    np.testing.assert_array_equal(out, hidden @ net.W2.T + net.b2)
    np.testing.assert_array_equal(cx, x)


def test_backward_matches_finite_differences():
    """d sum(w * f(x)) / d(params, x) checked block by block."""
    net = random_net(21)
    x = SeededRng(22).gaussian(5 * 4).reshape(5, 4)
    w = SeededRng(23).gaussian(5 * 3).reshape(5, 3)

    def objective(params, inputs):
        return float(np.sum(w * mlp_forward_cache(params, inputs)[0]))

    out, cache = mlp_forward_cache(net, x)
    grads, dx = mlp_backward(net, cache, w)
    eps = 1e-6

    for name in ("W1", "b1", "W2", "b2"):
        block = getattr(net, name)
        got = getattr(grads, name)
        it = np.nditer(block, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = MlpParams(*(b.copy() for b in net.blocks()))
            minus = MlpParams(*(b.copy() for b in net.blocks()))
            getattr(plus, name)[idx] += eps
            getattr(minus, name)[idx] -= eps
            fd = (objective(plus, x) - objective(minus, x)) / (2 * eps)
            assert got[idx] == pytest.approx(fd, abs=1e-5), (name, idx)

    for idx in np.ndindex(*x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        fd = (objective(net, xp) - objective(net, xm)) / (2 * eps)
        assert dx[idx] == pytest.approx(fd, abs=1e-5), idx


def test_backward_relu_gate_blocks_gradient():
    """A unit whose pre-activation is negative contributes no W1 gradient."""
    net = MlpParams(np.array([[1.0], [-1.0]]), np.zeros(2), np.ones((1, 2)), np.zeros(1))
    out, cache = mlp_forward_cache(net, np.array([[2.0]]))
    grads, _ = mlp_backward(net, cache, np.ones((1, 1)))
    assert grads.W1[0, 0] == 2.0  # active unit
    assert grads.W1[1, 0] == 0.0  # gated unit (pre = -2)


def test_grad_helpers():
    net, part = random_net(8), random_net(9)
    expected = [a + b for a, b in zip(net.blocks(), part.blocks())]
    blocks = net.blocks()
    assert add_grads(net, part) is None
    for block, now, want in zip(blocks, net.blocks(), expected):
        assert now is block  # summed in place
        assert np.array_equal(now, want)
    part.b2[0] = np.inf
    with pytest.raises(ValueError, match="b2 contains a non-finite value at flat index 0"):
        add_grads(net, part)


def reference_adam_step(blocks, grads, state):
    """The functional update that adam_step replaced: new blocks and a new
    AdamState, inputs untouched. Kept as the bit-exact reference."""
    t = state.step + 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    new_blocks, new_m, new_v = [], [], []
    for p, g, m, v in zip(blocks, grads, state.m, state.v):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        new_blocks.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_blocks, AdamState(m=new_m, v=new_v, step=t, learning_rate=state.learning_rate)


@pytest.mark.parametrize("learning_rate", [0.0, 0.001, 0.3])
@pytest.mark.parametrize("scale", [0.0, 1.0, 1e150])
def test_adam_in_place_matches_reference(learning_rate, scale):
    rng = SeededRng(21)
    blocks = [rng.gaussian(12).reshape(3, 4), rng.gaussian(5), np.zeros((2, 3))]
    state = adam_init(blocks, learning_rate=learning_rate)
    ref_blocks = [b.copy() for b in blocks]
    ref_state = adam_init(ref_blocks, learning_rate=learning_rate)
    for step in range(6):
        grads = [scale * rng.gaussian(b.size).reshape(b.shape) for b in blocks]
        grads[2][0] = 0.0  # a zero gradient row in every step
        if step == 3:
            grads[1][:] = 0.0
        ref_blocks, ref_state = reference_adam_step(ref_blocks, grads, ref_state)
        adam_step(blocks, grads, state)
        assert state.step == ref_state.step == step + 1
        for a, b in zip(blocks + state.m + state.v, ref_blocks + ref_state.m + ref_state.v):
            assert np.array_equal(a, b)


def test_adam_zero_gradient_is_noop():
    net = random_net(9)
    before = [b.copy() for b in net.blocks()]
    state = adam_init(net.blocks(), learning_rate=0.1)
    adam_step(net.blocks(), [np.zeros_like(b) for b in net.blocks()], state)
    for old, new in zip(before, net.blocks()):
        np.testing.assert_array_equal(old, new)
    assert state.step == 1


def test_adam_first_step_closed_form():
    """With fresh moments the first update is lr * g / (|g| + eps)."""
    p = np.array([1.0, -2.0])
    g = np.array([0.5, -3.0])
    expected = p - 0.01 * g / (np.abs(g) + 1e-8)
    state = adam_init([p], learning_rate=0.01)
    adam_step([p], [g], state)
    np.testing.assert_allclose(p, expected, atol=1e-12)


def test_adam_two_steps_match_scalar_reference():
    p = np.array([0.3])
    state = adam_init([p], learning_rate=0.05)
    for g in [np.array([0.2]), np.array([-0.4])]:
        adam_step([p], [g], state)

    # scalar reference straight from the update equations
    m = v = 0.0
    theta = 0.3
    for t, g in enumerate([0.2, -0.4], start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert p[0] == pytest.approx(theta, abs=1e-15)
    assert state.step == 2


def test_adam_shape_mismatch_errors():
    state = adam_init([np.zeros(2)])
    with pytest.raises(ValueError, match="shape"):
        adam_step([np.zeros(2)], [np.zeros(3)], state)
    with pytest.raises(ValueError, match="counts"):
        adam_step([np.zeros(2), np.zeros(2)], [np.zeros(2)], state)
    assert state.step == 0


def test_adam_updates_the_given_arrays():
    p = np.array([1.0])
    g = np.array([2.0])
    state = adam_init([p])
    m, v = state.m[0], state.v[0]
    adam_step([p], [g], state)
    assert state.step == 1
    assert state.m[0] is m and state.v[0] is v
    assert p[0] < 1.0
    assert (m[0], v[0]) == pytest.approx((0.2, 0.004), rel=1e-15)


def test_adam_rejects_non_finite_update():
    p = np.array([0.0])
    state = adam_init([p], learning_rate=1.7e308)
    with pytest.raises(ValueError, match="parameter block 0 contains a non-finite value"):
        adam_step([p], [np.array([2.0])], state)
    assert p[0] == -np.inf


def test_adam_chunks_match_reference():
    """Blocks longer than a chunk, with a partial last chunk, in C, Fortran
    and strided layouts, update as the whole-array reference does."""
    rng = SeededRng(22)
    base = rng.gaussian(600 * 90).reshape(600, 90)
    blocks = [rng.gaussian(3 * ADAM_CHUNK + 5), np.asfortranarray(base[:, :40]), base[::2, 1::3]]
    state = adam_init(blocks, learning_rate=0.01)
    ref_blocks = [b.copy() for b in blocks]
    ref_state = adam_init(ref_blocks, learning_rate=0.01)
    for _ in range(3):
        grads = [rng.gaussian(b.size).reshape(b.shape) for b in blocks]
        grads[1] = np.ascontiguousarray(grads[1])
        ref_blocks, ref_state = reference_adam_step(ref_blocks, grads, ref_state)
        adam_step(blocks, grads, state)
        for a, b in zip(blocks + state.m + state.v, ref_blocks + ref_state.m + ref_state.v):
            assert np.array_equal(a, b)
    assert base[0, 1] == blocks[2][0, 0]  # the strided view was updated in place


def vector_blocks(flat, shapes):
    """Consecutive row-major views of flat, one of each shape."""
    ends = np.cumsum([int(np.prod(s)) for s in shapes])
    return [part.reshape(s) for part, s in zip(np.split(flat, ends[:-1]), shapes)]


# a zero-size block, one longer than ADAM_CHUNK, and block boundaries inside
# the vector's chunks of ADAM_CHUNK elements (at 15, 16 406 and 16 410)
VECTOR_SHAPES = [(3, 5), (0,), (ADAM_CHUNK + 7,), (4,), (2, 3)]


@pytest.mark.parametrize("cuts", [[], [15], [16406]], ids=["one-vector", "two", "two-late"])
def test_adam_over_vectors_matches_reference_block_by_block(cuts):
    """Blocks laid out in one vector, updated as one array or as consecutive
    runs of blocks, match the reference update of each block, bit for bit."""
    rng = SeededRng(24)
    flat = rng.gaussian(sum(int(np.prod(s)) for s in VECTOR_SHAPES))
    blocks = vector_blocks(flat, VECTOR_SHAPES)
    state = adam_init(blocks, learning_rate=0.01)
    ref_blocks = [b.copy() for b in blocks]
    ref_state = adam_init(ref_blocks, learning_rate=0.01)
    for _ in range(3):
        grad = rng.gaussian(flat.size)
        ref_blocks, ref_state = reference_adam_step(
            ref_blocks, vector_blocks(grad, VECTOR_SHAPES), ref_state)
        adam_step(np.split(flat, cuts), np.split(grad, cuts), state)
        for a, b in zip(blocks + state.m + state.v, ref_blocks + ref_state.m + ref_state.v):
            assert np.array_equal(a, b)


def test_adam_over_a_vector_names_the_first_non_finite_block():
    flat = np.zeros(sum(int(np.prod(s)) for s in VECTOR_SHAPES))
    state = adam_init(vector_blocks(flat, VECTOR_SHAPES), learning_rate=1.7e308)
    grad = np.zeros_like(flat)
    grads = vector_blocks(grad, VECTOR_SHAPES)
    grads[3][1] = 2.0  # lr * m_hat overflows here and in block 4 alike
    grads[4][0, 2] = 2.0
    with pytest.raises(ValueError, match=r"^parameter block 3 contains a non-finite value "
                                         r"at flat index 1$"):
        adam_step([flat], [grad], state)


def test_adam_checks_each_array_once(monkeypatch):
    """The finiteness check runs once per array given, however many blocks
    the state has."""
    flat = np.zeros(sum(int(np.prod(s)) for s in VECTOR_SHAPES))
    state = adam_init(vector_blocks(flat, VECTOR_SHAPES))
    checked = count_finiteness_checks(monkeypatch)
    adam_step([flat], [np.ones_like(flat)], state)
    assert checked == [flat.size]
    adam_step(np.split(flat, [15]), np.split(np.ones_like(flat), [15]), state)
    assert checked == [flat.size, 15, flat.size - 15]


def test_adam_rejects_arrays_that_do_not_lay_out_the_blocks_in_order():
    """The arrays given must end on the state's block boundaries, in order:
    a vector split inside a block, or two networks' vectors swapped, would
    pair parameters with another block's moments."""
    flat = np.zeros(sum(int(np.prod(s)) for s in VECTOR_SHAPES))
    state = adam_init(vector_blocks(flat, VECTOR_SHAPES))
    with pytest.raises(ValueError, match="block boundaries"):
        adam_step(np.split(flat, [10]), np.split(np.ones_like(flat), [10]), state)
    g_net, f_net = np.zeros(6), np.zeros(4)
    state = adam_init([g_net.reshape(2, 3), f_net])
    with pytest.raises(ValueError, match="block boundaries"):
        adam_step([f_net, g_net], [np.ones(4), np.ones(6)], state)
    assert state.step == 0
    adam_step([g_net, f_net], [np.ones(6), np.ones(4)], state)
    assert state.step == 1


def test_adam_step_makes_no_block_sized_temporaries():
    p = np.linspace(-1.0, 1.0, 2048 * 512).reshape(2048, 512)
    g = np.cos(7.0 * p)
    state = adam_init([p])
    adam_step([p], [g], state)
    _, peak = traced_peak(adam_step, [p], [g], state)
    assert peak <= 1.5 * 2**20  # the finiteness check's mask is 1 MB; the block is 8 MB


def test_backward_skips_the_input_gradient_on_request():
    net = random_net(3)
    x = SeededRng(4).gaussian(5 * net.input_dim).reshape(5, net.input_dim)
    _, cache = mlp_forward_cache(net, x)
    d_out = SeededRng(5).gaussian(5 * net.output_dim).reshape(5, net.output_dim)
    full, dx = mlp_backward(net, cache, d_out)
    grads, none = mlp_backward(net, cache, d_out, input_grad=False)
    assert dx.shape == x.shape and none is None
    for a, b in zip(full.blocks(), grads.blocks()):
        assert np.array_equal(a, b)
