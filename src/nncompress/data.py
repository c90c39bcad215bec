"""Synthetic datasets and CSV loading for the desk-scale trainer."""

from __future__ import annotations

import csv
import os
from typing import Iterator, Optional, Tuple

import numpy as np

from .util import make_rng

DATASETS = ("blobs", "stripes")


def gaussian_blobs(n: int, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Two well-separated 8-dimensional Gaussian clusters."""
    rng = make_rng(seed)
    y = rng.integers(0, 2, size=n)
    centers = np.where(y[:, None] == 0, -0.8, 0.8) * np.ones((n, 8))
    x = centers + rng.normal(scale=0.5, size=(n, 8))
    return x, y.astype(np.int64)


def stripe_images(n: int, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """8x8 images: class 0 vertical stripes, class 1 horizontal, plus noise."""
    rng = make_rng(seed)
    y = rng.integers(0, 2, size=n)
    phase = rng.integers(0, 2, size=n)
    # a pixel is on where its column (class 0) or row (class 1) plus the phase is even
    rows, cols = np.indices((8, 8))
    index = np.where(y[:, None, None] == 0, cols, rows)
    x = ((index + phase[:, None, None]) % 2 == 0).astype(np.float64).reshape(n, 1, 8, 8)
    x += rng.normal(scale=0.25, size=x.shape)
    return x, y.astype(np.int64)


def load_csv(path) -> Tuple[np.ndarray, np.ndarray]:
    """Feature matrix plus integer labels from a CSV with a 'label' column."""
    if not os.path.exists(path):
        raise ValueError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"empty dataset file: {path}") from None
        if "label" not in header:
            raise ValueError(f"no 'label' column in {path} (columns: {header})")
        label_idx = header.index("label")
        feats, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                labels.append(int(row[label_idx]))
                feats.append([float(v) for i, v in enumerate(row) if i != label_idx])
            except (ValueError, IndexError) as err:
                raise ValueError(f"{path}:{lineno}: bad row ({err})") from None
    if not feats:
        raise ValueError(f"no data rows in {path}")
    x = np.asarray(feats, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise ValueError(f"dataset {path} has fewer than 2 classes")
    return x, y


def make_dataset(name: str, n: int, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    if name == "blobs":
        return gaussian_blobs(n, seed)
    if name == "stripes":
        return stripe_images(n, seed)
    if str(name).endswith(".csv"):
        return load_csv(name)
    raise ValueError(f"unknown dataset {name!r}; choose from {DATASETS} or a .csv path")


def check_labels(x, y):
    """Refuse a dataset whose samples and labels differ in number."""
    if len(x) != len(y):
        raise ValueError(f"{len(x)} samples but {len(y)} labels")


def train_val_split(x, y, val_fraction: float = 0.2, seed: int = 0):
    check_labels(x, y)
    rng = make_rng(seed)
    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    n_val = max(1, int(len(x) * val_fraction))
    if len(x) <= n_val:
        raise ValueError(f"{len(x)} samples leave none for training once {n_val} are held out for validation")
    return (x[:-n_val], y[:-n_val]), (x[-n_val:], y[-n_val:])


def iter_batches(
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Minibatches in order, or shuffled when an rng is given."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    check_labels(x, y)
    idx = np.arange(len(x))
    if rng is not None:
        rng.shuffle(idx)
    for start in range(0, len(x), batch_size):
        take = idx[start : start + batch_size]
        yield x[take], y[take]
