import numpy as np
import pytest

from nncompress import tensor as T
from nncompress.tensor import Tensor
from nncompress.train import SGD


def test_sgd_leaves_unreached_parameters_alone():
    used = Tensor([1.0, -2.0], requires_grad=True)
    unused = Tensor([5.0], requires_grad=True)
    opt = SGD([("used", used, 1.0), ("unused", unused, 1.0)], lr=0.1, momentum=0.9, weight_decay=0.1)
    for _ in range(3):
        T.backward(T.tsum(T.mul(used, used)))
        opt.step()
        opt.zero_grad()
    np.testing.assert_array_equal(unused.data, [5.0])
    np.testing.assert_array_equal(opt.velocity["unused"], [0.0])
    assert np.all(np.abs(used.data) < [1.0, 2.0])


def test_sgd_refuses_a_repeated_name():
    """Two tensors under one name would share a velocity buffer: with momentum,
    one step would move the tensor that has no gradient (1.0 to 0.91)."""
    a = Tensor([1.0], requires_grad=True)
    b = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError, match="parameter name 'w' is given twice"):
        SGD([("w", a, 1.0), ("v", Tensor([0.0]), 1.0), ("w", b, 1.0)], lr=0.1, momentum=0.9)
    opt = SGD([("a", a, 1.0), ("b", b, 1.0)], lr=0.1, momentum=0.9)
    a.grad, b.grad = np.ones(1), np.zeros(1)
    opt.step()
    np.testing.assert_array_equal(b.data, [1.0])
    np.testing.assert_array_equal(a.data, [0.9])
