"""No numpy RuntimeWarning leaks out of a library call: on finite extreme
input each call either computes quietly, leaving the trouble for a
finiteness check to raise, or raises its documented ValueError. Warnings
are errors in this suite, so a leaked one fails here."""

import numpy as np
import pytest

from otzsl.generator import GeneratorParams, backward, generator_forward, init_generator
from otzsl.linalg import log_softmax_rows
from otzsl.mlp import MlpParams, add_grads, init_mlp, mlp_backward, mlp_forward_cache, mlp_size
from otzsl.ot import Marginals, check_marginals, transport_cost
from otzsl.rng import SeededRng

HUGE = 1e308


def ones_net(i, h, o):
    return MlpParams(np.ones(mlp_size(i, h, o)), i, h, o)


def backward_of_huge_d_out():
    net = ones_net(3, 4, 2)
    _, cache = mlp_forward_cache(net, np.ones((2, 3)))
    return mlp_backward(net, cache, np.full((2, 2), HUGE))


def huge_generator_features():
    g = GeneratorParams(ones_net(4, 3, 2))
    features, _ = generator_forward(g, np.full((2, 2), HUGE), np.full((2, 2), HUGE))
    return features


def backward_of_huge_reg_weight():
    """backward of a 2x2 batch whose class-likelihood gradient overflows."""
    rng = SeededRng(0)
    g, f = init_generator(2, 2, 3, rng.split(1)), init_mlp(2, 3, 2, rng.split(2))
    attrs = np.array([[1.0, 0.0], [0.0, 1.0]])
    generated = generator_forward(g, attrs, np.array([[1.0, 2.0], [3.0, 1.0]]))
    return backward(np.full((2, 2), 0.25), np.array([[2.0, 1.0], [1.0, 2.0]]), [0, 1], generated,
                    [0, 1], g, f, attrs, reg_weight=HUGE, nca_scale=0.5)


# (call, error): the ValueError a call raises, or None for a call that
# returns quietly, which then returns whether its result shows the trouble
CASES = {
    "log_softmax-inf": (lambda: not np.isfinite(log_softmax_rows(np.array([[np.inf, 0.0]]))).all(),
                        None),
    "log_softmax-all-minus-inf": (
        lambda: np.isnan(log_softmax_rows(np.full((1, 2), -np.inf))).all(), None),
    "log_softmax-huge-spread": (
        lambda: log_softmax_rows(np.array([[HUGE, -HUGE]])).tolist() == [[0.0, -np.inf]], None),
    "generator_forward": (lambda: not np.isfinite(huge_generator_features()).all(), None),
    "check_marginals": (
        lambda: not check_marginals(np.full((2, 2), HUGE), Marginals.uniform(2, 2)).passed, None),
    "mlp_backward": (backward_of_huge_d_out, "W1 contains a non-finite value"),
    "add_grads": (lambda: add_grads(MlpParams(np.full(mlp_size(3, 4, 2), HUGE), 3, 4, 2),
                                    MlpParams(np.full(mlp_size(3, 4, 2), HUGE), 3, 4, 2)),
                  "W1 contains a non-finite value"),
    "Marginals": (lambda: Marginals([HUGE, HUGE], [0.5, 0.5]),
                  "row marginal sums to inf, expected 1"),
    "transport_cost": (lambda: transport_cost(np.full((2, 2), HUGE), np.full((2, 2), 2.0)) == np.inf,
                       None),
    "backward": (backward_of_huge_reg_weight, "contains a non-finite value"),
}


@pytest.mark.parametrize("call, error", CASES.values(), ids=CASES.keys())
def test_extreme_finite_input_gives_no_warning(call, error):
    if error is None:
        assert call()
    else:
        with pytest.raises(ValueError, match=error):
            call()
