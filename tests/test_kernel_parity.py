"""Bitwise parity of the training-path kernels with their phase-sweep references.

The conv input-gradient scatter and the max-pool training forward are
rewritten for speed; every output element must still see exactly the float32
operations it saw in the NCHW phase sweeps kept in ``tests/helpers.py``.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.functional import _stacked_col2im_t

from tests.helpers import (
    reference_col2im_t,
    reference_max_pool2d,
    reference_stacked_col2im_t,
)


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)


def _column_gradients(rng, shape):
    """float32 columns with signed zeros mixed in (``-0.0 + 0.0`` is ``+0.0``)."""
    cols = rng.standard_normal(shape).astype(np.float32)
    cols[rng.random(shape) < 0.2] = -0.0
    cols[rng.random(shape) < 0.1] = 0.0
    return cols


# (C, H, W, kernel, stride, padding): LeNet's conv2, overlapping 3x3 windows,
# stride 2 with padding 1, and a kernel covering the padded input (1x1 out).
GEOMETRIES = [
    (6, 6, 6, 5, 1, 0),
    (4, 5, 5, 3, 1, 1),
    (3, 7, 6, 3, 2, 1),
    (2, 4, 4, 2, 2, 0),
    (5, 1, 1, 3, 1, 1),
]


@pytest.mark.parametrize("num_chips", [1, 3, 8])
@pytest.mark.parametrize("c, h, w, k, s, p", GEOMETRIES)
def test_stacked_scatter_matches_phase_sweep(num_chips, c, h, w, k, s, p):
    rng = np.random.default_rng(num_chips * 100 + h * 10 + k)
    per_chip = 3
    out_h = (h + 2 * p - k) // s + 1
    out_w = (w + 2 * p - k) // s + 1
    cols = _column_gradients(rng, (num_chips, c * k * k, per_chip * out_h * out_w))
    x_shape = (num_chips * per_chip, c, h, w)
    args = ((k, k), (s, s), (p, p), out_h, out_w)
    got = _stacked_col2im_t(cols, x_shape, num_chips, *args)
    expected = reference_stacked_col2im_t(cols, x_shape, num_chips, *args)
    assert got.shape == x_shape and got.dtype == np.float32
    np.testing.assert_array_equal(_bits(got), _bits(expected))
    # Chip b's slice is the serial scatter of its own columns.
    for chip in range(num_chips):
        serial = F.col2im_t(cols[chip], (per_chip, c, h, w), *args)
        np.testing.assert_array_equal(
            _bits(serial), _bits(got[chip * per_chip:(chip + 1) * per_chip])
        )


@pytest.mark.parametrize("c, h, w, k, s, p", GEOMETRIES)
def test_serial_scatter_matches_phase_sweep(c, h, w, k, s, p):
    rng = np.random.default_rng(h * 10 + k)
    n = 4
    out_h = (h + 2 * p - k) // s + 1
    out_w = (w + 2 * p - k) // s + 1
    colsT = _column_gradients(rng, (c * k * k, n * out_h * out_w))
    args = ((n, c, h, w), (k, k), (s, s), (p, p), out_h, out_w)
    got = F.col2im_t(colsT, *args)
    np.testing.assert_array_equal(_bits(got), _bits(reference_col2im_t(colsT, *args)))
    # The row-major col2im is the same scatter of the transposed columns.
    np.testing.assert_array_equal(_bits(F.col2im(colsT.T.copy(), *args)), _bits(got))


def test_scatter_keeps_negative_zero_sums_positive():
    """Every element starts at +0.0, so all-(-0.0) contributions sum to +0.0."""
    cols = np.full((1, 2 * 3 * 3, 2 * 4 * 4), -0.0, dtype=np.float32)
    got = _stacked_col2im_t(cols, (2, 2, 4, 4), 1, (3, 3), (1, 1), (1, 1), 4, 4)
    assert not np.signbit(got).any()


def _relu_activations(rng, shape):
    """Post-ReLU activations: many all-zero windows, i.e. ties."""
    x = rng.standard_normal(shape).astype(np.float32)
    x[:, :, ::3] = -1.0
    return np.maximum(x, 0.0)


@pytest.mark.parametrize(
    "shape, kernel, stride",
    [
        ((8, 6, 12, 12), 2, 2),
        ((4, 3, 9, 9), 3, 2),
        ((4, 3, 7, 8), 3, 1),
        ((3, 2, 5, 5), 2, 3),
    ],
)
def test_max_pool_forward_matches_boolean_scatter(shape, kernel, stride):
    rng = np.random.default_rng(sum(shape) + kernel)
    x = _relu_activations(rng, shape)
    x[0, 0] = 0.0  # whole channel of all-zero windows
    fn = F.MaxPool2dFunction()
    out = fn.forward(x, (kernel, kernel), (stride, stride))
    argmax = fn.saved[3]
    ref_out, ref_argmax = reference_max_pool2d(x, (kernel, kernel), (stride, stride))
    np.testing.assert_array_equal(_bits(out), _bits(ref_out))
    assert argmax.dtype == np.int16
    np.testing.assert_array_equal(argmax, ref_argmax)
    assert (argmax[0, 0] == 0).all()  # ties go to the first window position


def test_max_pool_ties_and_nan_follow_the_first_position():
    x = np.array([[[[1.0, 1.0, 0.0], [1.0, np.nan, 2.0]]]], dtype=np.float32)
    fn = F.MaxPool2dFunction()
    out = fn.forward(x, (2, 2), (1, 1))
    ref_out, ref_argmax = reference_max_pool2d(x, (2, 2), (1, 1))
    np.testing.assert_array_equal(_bits(out), _bits(ref_out))
    np.testing.assert_array_equal(fn.saved[3], ref_argmax)
    assert fn.saved[3][0, 0, 0, 0] == 0


def test_max_pool_forward_leaves_its_input_alone():
    """A contiguous first phase (one output row) is still copied, not aliased."""
    x = np.array([[[[1.0, 3.0, 2.0], [4.0, 0.0, 5.0]]]], dtype=np.float32)
    before = x.copy()
    out = F.MaxPool2dFunction().forward(x, (2, 2), (1, 1))
    np.testing.assert_array_equal(x, before)
    np.testing.assert_array_equal(out, [[[[4.0, 5.0]]]])
