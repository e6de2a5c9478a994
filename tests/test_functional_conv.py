"""Tests for the im2col lowering and the serial oracle's convolution."""

import numpy as np
import pytest

from repro.nn import functional as F
from tests import serial
from tests.helpers import numeric_gradient
from tests.serial import Tensor

RNG = np.random.default_rng(7)


def naive_conv2d(x, weight, bias, stride, padding):
    """Straightforward reference convolution (loops, no im2col)."""
    n, c, h, w = x.shape
    out_ch, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, out_ch, out_h, out_w))
    for b in range(n):
        for o in range(out_ch):
            for i in range(out_h):
                for j in range(out_w):
                    patch = padded[b, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[b, o, i, j] = (patch * weight[o]).sum()
            if bias is not None:
                out[b, o] += bias[o]
    return out


class TestIm2col:
    def test_shapes(self):
        x = RNG.standard_normal((2, 3, 8, 8))
        colsT, oh, ow = F.im2col_t(x, (3, 3), (1, 1), (1, 1))
        assert (oh, ow) == (8, 8)
        assert colsT.shape == (3 * 3 * 3, 2 * 8 * 8)

    def test_stride_and_no_padding(self):
        x = RNG.standard_normal((1, 1, 6, 6))
        colsT, oh, ow = F.im2col_t(x, (2, 2), (2, 2), (0, 0))
        assert (oh, ow) == (3, 3)
        assert colsT.shape == (4, 9)

    def test_kernel_larger_than_input_raises(self):
        x = RNG.standard_normal((1, 1, 3, 3))
        with pytest.raises(ValueError):
            F.im2col_t(x, (5, 5), (1, 1), (0, 0))

    def test_col2im_inverts_counts(self):
        """col2im_t(ones) counts how many windows cover each input pixel."""
        x_shape = (1, 1, 4, 4)
        colsT, oh, ow = F.im2col_t(np.zeros(x_shape), (2, 2), (1, 1), (0, 0))
        counts = serial.col2im_t(np.ones_like(colsT), x_shape, (2, 2), (1, 1), (0, 0), oh, ow)
        # Corner pixels are covered once, edges twice, centre four times.
        assert counts[0, 0, 0, 0] == 1
        assert counts[0, 0, 0, 1] == 2
        assert counts[0, 0, 1, 1] == 4


class TestConvForward:
    @pytest.mark.parametrize(
        "stride,padding",
        [((1, 1), (0, 0)), ((1, 1), (1, 1)), ((2, 2), (1, 1)), ((2, 1), (0, 1))],
    )
    def test_matches_naive_reference(self, stride, padding):
        x = RNG.standard_normal((2, 3, 7, 6))
        w = RNG.standard_normal((4, 3, 3, 3))
        b = RNG.standard_normal(4)
        expected = naive_conv2d(x, w, b, stride, padding)
        actual = serial.conv2d(
            Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64), Tensor(b, dtype=np.float64),
            stride=stride, padding=padding,
        )
        np.testing.assert_allclose(actual.data, expected, rtol=1e-6, atol=1e-8)

    def test_no_bias(self):
        x = RNG.standard_normal((1, 2, 5, 5))
        w = RNG.standard_normal((3, 2, 3, 3))
        expected = naive_conv2d(x, w, None, (1, 1), (0, 0))
        actual = serial.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64), None)
        np.testing.assert_allclose(actual.data, expected, rtol=1e-6, atol=1e-8)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 5, 5)))
        w = Tensor(np.zeros((3, 4, 3, 3)))
        with pytest.raises(ValueError):
            serial.conv2d(x, w)


def _squared_sum(out):
    return (out * out).sum().item()


class TestConvGradients:
    def test_input_gradient(self):
        x0 = RNG.standard_normal((2, 2, 5, 5))
        w0 = RNG.standard_normal((3, 2, 3, 3))
        b0 = RNG.standard_normal(3)
        x = Tensor(x0, requires_grad=True, dtype=np.float64)
        out = serial.conv2d(x, Tensor(w0, dtype=np.float64), Tensor(b0, dtype=np.float64), stride=2, padding=1)
        (out * out).sum().backward()
        numeric = numeric_gradient(
            lambda arr: _squared_sum(
                serial.conv2d(Tensor(arr, dtype=np.float64), Tensor(w0, dtype=np.float64), Tensor(b0, dtype=np.float64), stride=2, padding=1)
            ),
            x0,
        )
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-5, atol=1e-6)

    def test_weight_and_bias_gradient(self):
        x0 = RNG.standard_normal((2, 2, 5, 5))
        w0 = RNG.standard_normal((3, 2, 3, 3))
        b0 = RNG.standard_normal(3)
        w = Tensor(w0, requires_grad=True, dtype=np.float64)
        b = Tensor(b0, requires_grad=True, dtype=np.float64)
        out = serial.conv2d(Tensor(x0, dtype=np.float64), w, b, stride=1, padding=1)
        (out * out).sum().backward()
        numeric_w = numeric_gradient(
            lambda arr: _squared_sum(
                serial.conv2d(Tensor(x0, dtype=np.float64), Tensor(arr, dtype=np.float64), Tensor(b0, dtype=np.float64), stride=1, padding=1)
            ),
            w0,
        )
        numeric_b = numeric_gradient(
            lambda arr: _squared_sum(
                serial.conv2d(Tensor(x0, dtype=np.float64), Tensor(w0, dtype=np.float64), Tensor(arr, dtype=np.float64), stride=1, padding=1)
            ),
            b0,
        )
        np.testing.assert_allclose(w.grad, numeric_w, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(b.grad, numeric_b, rtol=1e-5, atol=1e-6)
