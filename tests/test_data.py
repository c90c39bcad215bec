import numpy as np
import pytest

from nncompress.data import iter_batches, stripe_images, train_val_split
from nncompress.models import build_model
from nncompress.train import evaluate, train_model
from nncompress.util import make_rng


def loop_stripe_images(n, seed=0):
    """The per-sample form of ``stripe_images``, as a reference."""
    rng = make_rng(seed)
    y = rng.integers(0, 2, size=n)
    phase = rng.integers(0, 2, size=n)
    x = np.zeros((n, 1, 8, 8))
    cols = np.arange(8)
    for i in range(n):
        stripe = ((cols + phase[i]) % 2 == 0).astype(np.float64)
        if y[i] == 0:
            x[i, 0] = np.tile(stripe, (8, 1))
        else:
            x[i, 0] = np.tile(stripe[:, None], (1, 8))
    x += rng.normal(scale=0.25, size=x.shape)
    return x, y.astype(np.int64)


@pytest.mark.parametrize("n", [0, 1, 512, 1024])
@pytest.mark.parametrize("seed", [0, 5, 10000])
def test_stripe_images_matches_the_per_sample_form(n, seed):
    x, y = stripe_images(n, seed)
    x_ref, y_ref = loop_stripe_images(n, seed)
    assert x.shape == x_ref.shape == (n, 1, 8, 8) and x.flags["C_CONTIGUOUS"]
    assert x.tobytes() == x_ref.tobytes()
    assert y.dtype == y_ref.dtype and y.tobytes() == y_ref.tobytes()


# -- mismatched and empty data -----------------------------------------------


def _stripes(n_images, n_labels):
    x, _ = stripe_images(n_images)
    return x, stripe_images(n_labels)[1]


@pytest.mark.parametrize("n_labels", [48, 32])
def test_iter_batches_refuses_mismatched_labels(n_labels):
    with pytest.raises(ValueError, match=f"40 samples but {n_labels} labels"):
        next(iter_batches(*_stripes(40, n_labels), 16))


def test_train_val_split_refuses_mismatched_labels():
    with pytest.raises(ValueError, match="40 samples but 48 labels"):
        train_val_split(*_stripes(40, 48))


@pytest.mark.parametrize("n_labels", [48, 32])
def test_evaluate_refuses_mismatched_labels(n_labels):
    with pytest.raises(ValueError, match=f"40 samples but {n_labels} labels"):
        evaluate(build_model("cnn-small"), *_stripes(40, n_labels))


def test_evaluate_refuses_an_empty_set():
    with pytest.raises(ValueError, match="at least one sample"):
        evaluate(build_model("cnn-small"), *_stripes(0, 0))


def test_train_model_refuses_mismatched_labels_before_training():
    graph = build_model("cnn-small")
    before = graph.nodes["conv1"].params["weight"].data.copy()
    with pytest.raises(ValueError, match="40 samples but 48 labels"):
        train_model(graph, [], _stripes(40, 48), _stripes(8, 8), epochs=1)
    with pytest.raises(ValueError, match="8 samples but 7 labels"):
        train_model(graph, [], _stripes(40, 40), _stripes(8, 7), epochs=1)
    np.testing.assert_array_equal(graph.nodes["conv1"].params["weight"].data, before)
