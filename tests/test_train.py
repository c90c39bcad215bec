import numpy as np

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
