"""Bitwise parity of the training-path kernels with their references.

The conv lowering, the conv input-gradient scatter, the max-pool training
forward and backward, and the stacked conv weight gradient are rewritten for
speed; every output element must still see exactly the float32 operations
(or, for the lowering, hold exactly the element) it did in the single-copy
and NCHW phase-sweep references kept in ``tests/helpers.py``, or, for the
weight gradient, in the serial ``Conv2dFunction`` backward.
"""

import numpy as np
import pytest

from repro.accelerator.batched import _StackedConv2dFunction
from repro.nn import functional as F
from repro.nn.functional import _stacked_col2im_t, _stacked_im2col_t

from tests.helpers import (
    reference_col2im_t,
    reference_im2col_t,
    reference_max_pool2d,
    reference_max_pool2d_backward,
    reference_stacked_col2im_t,
    reference_stacked_im2col_t,
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
    # A non-contiguous (transposed-back) column operand scatters the same.
    np.testing.assert_array_equal(_bits(F.col2im_t(colsT.T.copy().T, *args)), _bits(got))


# (C, H, W, kernel, stride, padding) of the lowering, and whether it has fewer
# output pixels than kernel offsets (the per-pixel copy) or not (one strided
# copy): LeNet's conv1 and conv2, stride 2 with padding 1 on either side of
# the rule, 3x3 over 2x2 with padding 1, a 1x1 output and non-square
# kernels / strides (so swapped window offsets cannot go unnoticed).
LOWERINGS = [
    pytest.param(1, 12, 12, (5, 5), (1, 1), (2, 2), id="lenet-conv1-strided"),
    pytest.param(6, 6, 6, (5, 5), (1, 1), (0, 0), id="lenet-conv2-per-pixel"),
    pytest.param(3, 7, 6, (3, 3), (2, 2), (1, 1), id="s2p1-strided"),
    pytest.param(2, 4, 5, (3, 3), (2, 2), (1, 1), id="s2p1-per-pixel"),
    pytest.param(4, 2, 2, (3, 3), (1, 1), (1, 1), id="3x3-over-2x2-per-pixel"),
    pytest.param(5, 1, 1, (3, 3), (1, 1), (1, 1), id="1x1-out-per-pixel"),
    pytest.param(3, 5, 4, (2, 3), (1, 2), (0, 1), id="non-square-strided"),
    pytest.param(3, 3, 6, (3, 2), (1, 2), (0, 0), id="non-square-per-pixel"),
]


def _activations(rng, shape, dtype=np.float32):
    """Inputs with signed zeros and NaNs mixed in (a copy must keep both)."""
    x = rng.standard_normal(shape).astype(dtype)
    x[rng.random(shape) < 0.15] = -0.0
    x[rng.random(shape) < 0.05] = np.nan
    return x


def _same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    unsigned = np.uint32 if got.dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(got.view(unsigned), expected.view(unsigned))


@pytest.mark.parametrize("num_chips", [1, 3, 8])
@pytest.mark.parametrize("c, h, w, kernel, stride, padding", LOWERINGS)
def test_stacked_lowering_matches_single_copy(num_chips, c, h, w, kernel, stride, padding):
    rng = np.random.default_rng(num_chips * 100 + h * 10 + c)
    per_chip = 5
    x = _activations(rng, (num_chips * per_chip, c, h, w))
    before = x.copy()
    got, out_h, out_w = _stacked_im2col_t(x, num_chips, kernel, stride, padding)
    expected, ref_h, ref_w = reference_stacked_im2col_t(x, num_chips, kernel, stride, padding)
    assert (out_h, out_w) == (ref_h, ref_w)
    assert got.flags.c_contiguous
    _same_bits(got, expected)
    _same_bits(x, before)
    # Chip b's slice is the serial lowering of its own samples.
    for chip in range(num_chips):
        serial, _, _ = F.im2col_t(x[chip * per_chip:(chip + 1) * per_chip], kernel, stride, padding)
        _same_bits(serial, got[chip])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c, h, w, kernel, stride, padding", LOWERINGS)
def test_serial_lowering_matches_single_copy(dtype, c, h, w, kernel, stride, padding):
    rng = np.random.default_rng(h * 10 + c)
    x = _activations(rng, (4, c, h, w), dtype)
    got, out_h, out_w = F.im2col_t(x, kernel, stride, padding)
    expected, ref_h, ref_w = reference_im2col_t(x, kernel, stride, padding)
    assert (out_h, out_w) == (ref_h, ref_w)
    assert got.flags.c_contiguous
    _same_bits(got, expected)


def test_lowering_of_non_contiguous_input_matches():
    """A strided NCHW view lowers like its contiguous copy."""
    rng = np.random.default_rng(5)
    base = _activations(rng, (8, 6, 6, 12))
    x = base[:, :, :, ::2]
    for args in [((5, 5), (1, 1), (0, 0)), ((3, 3), (1, 1), (1, 1))]:
        got, _, _ = _stacked_im2col_t(x, 2, *args)
        expected, _, _ = _stacked_im2col_t(np.ascontiguousarray(x), 2, *args)
        _same_bits(got, expected)


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


# (shape, kernel, stride): exact tilings (LeNet's pools at stack and eval
# sizes), ragged edges no window covers, and overlapping windows.
POOL_BACKWARDS = [
    ((40, 6, 12, 12), 2, 2),
    ((8, 16, 4, 4), 2, 2),
    ((4, 3, 9, 9), 3, 3),
    ((4, 3, 7, 8), 2, 2),
    ((3, 2, 5, 5), 2, 3),
    ((4, 3, 9, 9), 3, 2),
    ((4, 3, 7, 8), 3, 1),
]


def _pool_grads(rng, shape):
    """float32 output gradients with signed zeros, NaN and infinities."""
    grad = rng.standard_normal(shape).astype(np.float32)
    grad[rng.random(shape) < 0.15] = -0.0
    grad[rng.random(shape) < 0.05] = 0.0
    grad[rng.random(shape) < 0.03] = np.nan
    grad[rng.random(shape) < 0.03] = np.inf
    grad[rng.random(shape) < 0.03] = -np.inf
    return grad


@pytest.mark.parametrize("shape, kernel, stride", POOL_BACKWARDS)
def test_max_pool_backward_matches_phase_accumulate(shape, kernel, stride):
    rng = np.random.default_rng(sum(shape) + 10 * kernel + stride)
    x = _relu_activations(rng, shape)  # all-zero windows: ties
    x[0, 0] = 0.0
    fn = F.MaxPool2dFunction()
    out = fn.forward(x, (kernel, kernel), (stride, stride))
    grad = _pool_grads(rng, out.shape)
    argmax = fn.saved[3]
    with np.errstate(invalid="ignore"):  # inf * 0 at unselected positions
        (dx,) = fn.backward(grad)
        expected = reference_max_pool2d_backward(
            grad, argmax, x.shape, (kernel, kernel), (stride, stride)
        )
    assert dx.shape == x.shape and dx.dtype == expected.dtype
    np.testing.assert_array_equal(_bits(dx), _bits(expected))


def test_max_pool_backward_never_leaves_negative_zero():
    """An all-(-0.0) gradient routes to +0.0 everywhere, as ``0.0 + -0.0`` does."""
    x = np.arange(2 * 3 * 4 * 4, dtype=np.float32).reshape(2, 3, 4, 4)
    fn = F.MaxPool2dFunction()
    out = fn.forward(x, (2, 2), (2, 2))
    (dx,) = fn.backward(np.full(out.shape, -0.0, dtype=np.float32))
    assert (dx == 0.0).all() and not np.signbit(dx).any()


# (B, O, C, kernel, N, H, W): LeNet's conv1 and conv2 at the fast preset's
# training batch, and a VGG-mini 3x3 padded conv.
WEIGHT_GRADS = [
    (8, 6, 3, 5, 40, 16, 16, 0),
    (8, 16, 6, 5, 40, 6, 6, 0),
    (4, 32, 16, 3, 20, 8, 8, 1),
]


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "folded"])
@pytest.mark.parametrize("chips, out_c, in_c, k, n, h, w, pad", WEIGHT_GRADS)
def test_stacked_conv_weight_grad_matches_serial(chips, out_c, in_c, k, n, h, w, pad, shared):
    """Chip ``b``'s stacked weight gradient has the serial backward's bits."""
    rng = np.random.default_rng(chips * out_c + in_c + k)
    weight = (rng.standard_normal((chips, out_c, in_c, k, k)) * 0.1).astype(np.float32)
    bias = rng.standard_normal((chips, out_c)).astype(np.float32)
    rows = n if shared else chips * n
    x = rng.standard_normal((rows, in_c, h, w)).astype(np.float32)
    stacked = _StackedConv2dFunction()
    out = stacked.forward(x, weight, bias, (1, 1), (pad, pad), chips, shared)
    grad = rng.standard_normal(out.shape).astype(np.float32)
    _, grad_w, grad_b = stacked.backward(grad)
    assert grad_w.shape == weight.shape
    for chip in range(chips):
        x_b = x if shared else x[chip * n:(chip + 1) * n]
        serial = F.Conv2dFunction()
        serial.forward(x_b, weight[chip], bias[chip], (1, 1), (pad, pad))
        _, serial_w, serial_b = serial.backward(grad[chip * n:(chip + 1) * n])
        np.testing.assert_array_equal(_bits(grad_w[chip]), _bits(serial_w))
        np.testing.assert_array_equal(_bits(grad_b[chip]), _bits(serial_b))
