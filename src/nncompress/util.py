"""Seeding, loss and value-kind helpers shared across the package.

A value kind is a ``(test, description)`` pair.  The generic kinds live
here, each setting's own (``quantization.BITS``, ...) in its algorithm's module.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor

INTEGER = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number")
BOOL = (lambda v: isinstance(v, bool), "true or false")
STRING = (lambda v: isinstance(v, str), "a string")
LIST = (lambda v: isinstance(v, (list, tuple)), "a list")
OBJECT = (lambda v: isinstance(v, dict), "an object")
COUNT = (lambda v: INTEGER[0](v) and v >= 0, "a non-negative integer")
POSITIVE = (lambda v: INTEGER[0](v) and v >= 1, "a positive integer")
FINITE_POSITIVE = (lambda v: NUMBER[0](v) and 0 < v < math.inf, "a finite number > 0")
FRACTION = (lambda v: NUMBER[0](v) and 0 <= v < 1, "a number in [0, 1)")
PERCENT = (lambda v: NUMBER[0](v) and 0 <= v <= 100, "a number in [0, 100]")


def one_of(values) -> tuple:
    """The kind of a string among ``values``."""
    return (lambda v: isinstance(v, str) and v in values, f"one of {list(values)}")


def check(kind, value, name: str):
    """Raise a ``ValueError`` naming ``name`` when ``value`` fails ``kind``."""
    if not kind[0](value):
        raise ValueError(f"{name} must be {kind[1]}, got {value!r}")


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

