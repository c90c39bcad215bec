import numpy as np
import pytest

from nncompress.data import stripe_images
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
