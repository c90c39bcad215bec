"""Seeding and loss helpers shared across training, init, and stochastic algorithms."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def derive_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for a numbered sub-stream of a session seed."""
    return np.random.default_rng([int(seed), int(stream)])


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy of (N, C) logits against integer labels.

    The max shift is a constant, so gradients match plain softmax minus
    one-hot without the overflow.
    """
    labels = np.asarray(labels)
    n, c = logits.shape
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    z = T.sub(logits, shift)
    lse = T.tlog(T.tsum(T.texp(z), axis=1, keepdims=True))
    logp = T.sub(z, lse)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return T.mul(T.tsum(T.mul(logp, Tensor(onehot))), -1.0 / n)

