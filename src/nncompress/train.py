"""Deterministic SGD training loop wired to compression controllers."""

from __future__ import annotations

import logging
import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import tensor as T
from .api import (
    collect_extra_params,
    scheduler_epoch_step,
    scheduler_step,
    total_compression_loss,
)
from .data import check_labels, iter_batches
from .graph import ModelGraph
from .tensor import Tensor
from .util import cross_entropy, derive_rng

log = logging.getLogger("nncompress")


class NumericError(RuntimeError):
    """Loss went non-finite; training cannot continue."""


class SGD:
    def __init__(self, params, lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
        self.params = list(params)  # (name, tensor, lr multiplier)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(p.data) for name, p, _ in self.params}

    def step(self, lr_scale: float = 1.0, weight_decay_on: bool = True):
        for name, p, mult in self.params:
            g = p._grad  # the getter would hand back zeros for a parameter backward never reached
            if g is None:
                continue
            if self.weight_decay and weight_decay_on:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v = self.velocity[name]
                v *= self.momentum
                v += g
                g = v
            p.data = p.data - self.lr * mult * lr_scale * g

    def zero_grad(self):
        for _, p, _ in self.params:
            p.grad = None


def evaluate(graph: ModelGraph, x: np.ndarray, y: np.ndarray, batch_size: int = 128):
    """Eval-mode accuracy and mean task loss over a dataset."""
    if len(x) == 0:
        raise ValueError("evaluate needs at least one sample, got an empty dataset")
    losses, preds = [], []
    with T.no_grad():
        for xb, yb in iter_batches(x, y, batch_size):
            out = graph.run(Tensor(xb), mode="eval")
            losses.append(cross_entropy(out, yb).item() * len(xb))
            preds.append(np.argmax(out.data, axis=1) == yb)
    n = len(x)
    return float(np.concatenate(preds).mean()), float(sum(losses) / n)


def train_model(
    graph: ModelGraph,
    controllers: Sequence,
    train_set,
    val_set,
    epochs: int,
    batch_size: int = 32,
    lr: float = 0.1,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    seed: int = 0,
    on_epoch: Optional[Callable[[dict], None]] = None,
) -> List[dict]:
    """Fine-tune under compression; returns one metrics record per epoch.

    Per batch: forward (train mode), task loss + summed compression loss,
    backward, SGD step scaled by any controller-imposed learning-rate
    factor, then every per-batch scheduler.  Per epoch: every per-epoch
    scheduler first (fed the previous epoch's validation loss), then the
    pass over minibatches, then validation.
    """
    x_train, y_train = train_set
    x_val, y_val = val_set
    check_labels(x_train, y_train)
    check_labels(x_val, y_val)
    params = [
        (f"model:{nid}:{pname}", p, 1.0) for nid, pname, p in graph.parameters()
    ] + collect_extra_params(controllers)
    opt = SGD(params, lr=lr, momentum=momentum, weight_decay=weight_decay)
    shuffle_rng = derive_rng(seed, 101)
    gate_rng = derive_rng(seed, 102)

    history: List[dict] = []
    val_loss: Optional[float] = None
    for epoch in range(epochs):
        scheduler_epoch_step(controllers, metric=val_loss)
        lr_scale = math.prod((ctrl.lr_scale for ctrl in controllers), start=1.0)
        decay_on = all(ctrl.weight_decay_on for ctrl in controllers)

        task_sum = comp_value = 0.0
        for xb, yb in iter_batches(x_train, y_train, batch_size, rng=shuffle_rng):
            out = graph.run(Tensor(xb), mode="train", rng=gate_rng)
            task = cross_entropy(out, yb)
            comp = total_compression_loss(controllers)
            loss = T.add(task, comp)
            if not math.isfinite(loss.item()):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            T.backward(loss)
            opt.step(lr_scale=lr_scale, weight_decay_on=decay_on)
            opt.zero_grad()
            scheduler_step(controllers)
            task_sum += task.item() * len(xb)
            comp_value = comp.item()

        val_acc, val_loss = evaluate(graph, x_val, y_val)
        record = {
            "epoch": epoch,
            "task_loss": task_sum / len(x_train),
            "compression_loss": comp_value,
            "val_accuracy": val_acc,
            "val_loss": val_loss,
            "lr_scale": lr_scale,
            "stats": {ctrl.name: ctrl.statistics() for ctrl in controllers},
        }
        history.append(record)
        log.info(
            "epoch %d task_loss %.4f comp_loss %.4g val_acc %.4f",
            epoch, record["task_loss"], comp_value, val_acc,
        )
        if on_epoch:
            on_epoch(record)
    return history
