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
    one-hot without the overflow.  A label outside ``[0, C)`` raises
    ``ValueError`` naming the first such label.
    """
    labels = np.asarray(labels)
    n, c = logits.shape
    if n and (labels.min() < 0 or labels.max() >= c):
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"label {bad} is outside the model's {c} classes (0 to {c - 1})")
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    z = T.sub(logits, shift)
    lse = T.tlog(T.tsum(T.texp(z), axis=1, keepdims=True))
    logp = T.sub(z, lse)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return T.mul(T.tsum(T.mul(logp, Tensor(onehot))), -1.0 / n)

