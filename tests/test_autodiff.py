"""Unit and property tests for the autodiff core: forward semantics against
numpy, backward correctness against hand-derived gradients, graph mechanics.
Exhaustive finite-difference coverage lives in fmfdet.gradcheck.
"""
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmfdet import autodiff as ad
from fmfdet.errors import ShapeError, StateError
from fmfdet.layers import ConvBNReLU


def leaf(data):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestForwardSemantics:
    def test_add_matches_numpy_broadcast(self):
        a = leaf(np.arange(6.0).reshape(2, 3))
        b = leaf(np.array([10.0, 20.0, 30.0]))
        assert np.array_equal(ad.add(a, b).data, a.data + b.data)

    def test_scalar_operands_are_wrapped(self):
        a = leaf([1.0, 2.0])
        assert np.array_equal((a + 1.0).data, [2.0, 3.0])
        assert np.array_equal((3.0 - a).data, [2.0, 1.0])
        assert np.array_equal((a * 2.0).data, [2.0, 4.0])

    def test_relu_and_sigmoid(self):
        x = leaf([-2.0, 0.0, 3.0])
        assert np.array_equal(ad.relu(x).data, [0.0, 0.0, 3.0])
        s = ad.sigmoid(leaf([0.0, 100.0, -100.0])).data
        assert s[0] == 0.5
        assert s[1] == pytest.approx(1.0)
        assert s[2] == pytest.approx(0.0)
        assert np.all(np.isfinite(s))

    def test_clip_values(self):
        x = leaf([-1.0, 0.3, 2.0])
        assert np.array_equal(ad.clip(x, 0.0, 1.0).data, [0.0, 0.3, 1.0])

    def test_sum_mean(self):
        x = leaf(np.arange(12.0).reshape(3, 4))
        assert ad.sum(x).data == x.data.sum()
        assert ad.mean(x).data == x.data.mean()

    def test_matmul_shape_guard(self):
        with pytest.raises(ShapeError):
            ad.matmul(leaf(np.ones((2, 3, 4))), leaf(np.ones((4, 2))))

    def test_conv2d_matches_direct_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = ad.conv2d(leaf(x), leaf(w), stride=1, padding=1).data
        # direct sliding-window cross-correlation
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expect = np.zeros((1, 3, 5, 5))
        for f in range(3):
            for i in range(5):
                for j in range(5):
                    expect[0, f, i, j] = np.sum(
                        xp[0, :, i:i + 3, j:j + 3] * w[f])
        assert np.allclose(out, expect, atol=1e-12)

    @pytest.mark.parametrize("kwargs, names", [
        ({"stride": 0}, "stride"),
        ({"stride": -1}, "stride"),
        ({"padding": -1}, "padding"),
        ({"padding": "valid"}, "padding"),
    ])
    def test_conv2d_bad_stride_or_padding_is_shape_error(self, kwargs, names):
        with pytest.raises(ShapeError, match=names):
            ad.conv2d(leaf(np.ones((1, 1, 4, 4))), leaf(np.ones((1, 1, 3, 3))),
                      **kwargs)

    def test_conv2d_kernel_larger_than_input_is_shape_error(self):
        with pytest.raises(ShapeError, match="5x5 kernel"):
            ad.conv2d(leaf(np.ones((1, 1, 4, 4))), leaf(np.ones((3, 1, 5, 5))))

    @pytest.mark.parametrize("kwargs, names", [
        ({"stride": 0}, "stride"),
        ({"stride": -1}, "stride"),
        ({"padding": -1}, "padding"),
        ({"padding": "valid"}, "padding"),
        ({"kernel": 0}, "kernel"),
        ({"kernel": 5}, "5x5 kernel"),
    ])
    def test_maxpool_bad_arguments_are_shape_errors(self, kwargs, names):
        args = {"kernel": 3, **kwargs}
        with pytest.raises(ShapeError, match=names):
            ad.maxpool2d(leaf(np.ones((1, 1, 4, 4))), **args)

    def test_maxpool_uses_neg_inf_padding(self):
        x = leaf(-np.ones((1, 1, 3, 3)))
        out = ad.maxpool2d(x, kernel=3, stride=1, padding=1)
        # zero padding would have produced 0 at the border
        assert out.data.max() == -1.0
        assert out.data.shape == (1, 1, 3, 3)

    def test_segment_max_and_mean(self):
        x = leaf([[1.0, 5.0], [3.0, 2.0], [7.0, 0.0], [2.0, 2.0]])
        starts = np.array([0, 2])
        assert np.array_equal(ad.segment_max(x, starts).data,
                              [[3.0, 5.0], [7.0, 2.0]])
        assert np.array_equal(ad.segment_mean(x, starts).data,
                              [[2.0, 3.5], [4.5, 1.0]])

    def test_scatter_gather_inverse(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(5, 3))
        coords = np.array([[0, 0], [3, 2], [1, 1], [2, 0], [3, 0]])
        grid = ad.scatter_to_grid(leaf(feats), coords, dims=(4, 3))
        assert grid.data.shape == (1, 3, 3, 4)
        back = ad.gather_pixels(grid, coords[:, 1], coords[:, 0])
        assert np.array_equal(back.data, feats)

    def test_scatter_rejects_duplicates_and_out_of_grid(self):
        feats = leaf(np.ones((2, 1)))
        with pytest.raises(IndexError):
            ad.scatter_to_grid(feats, np.array([[0, 0], [0, 0]]), (2, 2))
        with pytest.raises(IndexError):
            ad.scatter_to_grid(feats, np.array([[0, 0], [2, 0]]), (2, 2))

    def test_bilinear_sample_interpolates(self):
        m = np.zeros((1, 1, 2, 2))
        m[0, 0] = [[0.0, 1.0], [2.0, 3.0]]
        grid = np.array([[[[0.5, 0.5]]]])
        out = ad.bilinear_sample(leaf(m), grid)
        assert out.data[0, 0, 0, 0] == pytest.approx(1.5)

    def test_bilinear_sample_zero_outside(self):
        m = leaf(np.ones((1, 1, 3, 3)))
        grid = np.array([[[[-5.0, 0.0], [0.0, 7.0]]]])
        out = ad.bilinear_sample(m, grid)
        assert np.array_equal(out.data[0, 0, 0], [0.0, 0.0])

    def test_resample_down_keeps_block_corners_and_rejects_up(self):
        x = leaf(np.arange(48.0).reshape(1, 1, 6, 8))
        down = ad.resample_nearest(x, (3, 2))
        assert np.array_equal(down.data[0, 0], [[0.0, 4.0], [16.0, 20.0],
                                                [32.0, 36.0]])
        for bad in ((5, 4), (12, 16), (6, 16), (0, 4)):
            with pytest.raises(ShapeError):
                ad.resample_nearest(x, bad)

    def test_concat_channels_checks_every_map(self):
        a, b = leaf(np.zeros((1, 2, 3, 3))), leaf(np.ones((1, 1, 3, 3)))
        cat = ad.concat_channels(a, b, a)
        assert np.array_equal(cat.data[0, :, 0, 0], [0.0, 0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ShapeError):
            ad.concat_channels(a, b, leaf(np.zeros((1, 1, 3, 4))))

    def test_resample_identity_returns_input(self):
        x = leaf(np.arange(12.0).reshape(1, 1, 3, 4))
        assert ad.resample_nearest(x, x.shape[2:]) is x


class TestBackwardMechanics:
    def test_grad_accumulates_across_calls(self):
        x = leaf([2.0])
        ad.backward(ad.sum(x * 3.0))
        ad.backward(ad.sum(x * 3.0))
        assert x.grad[0] == 6.0

    def test_diamond_graph_sums_both_paths(self):
        x = leaf([1.0])
        y = x * 2.0
        z = ad.add(y, x)    # dz/dx = 3
        ad.backward(ad.sum(z))
        assert x.grad[0] == 3.0

    def test_reused_node_accumulates(self):
        x = leaf([1.5])
        y = x * 1.0
        ad.backward(ad.sum(ad.add(y, y)))
        assert x.grad[0] == 2.0

    def test_second_backward_through_freed_graph_raises(self):
        x = leaf([2.0])
        loss = ad.sum(ad.relu(x * 3.0))
        ad.backward(loss)
        with pytest.raises(StateError, match="already freed"):
            ad.backward(loss)
        assert x.grad[0] == 3.0

    def test_backward_from_intermediate_of_freed_graph_raises(self):
        x = leaf([2.0])
        y = x * 3.0
        ad.backward(ad.sum(ad.relu(y)))
        with pytest.raises(StateError, match="already freed"):
            ad.backward(ad.sum(y * 2.0))

    def test_backward_frees_every_reached_node(self):
        rng = np.random.default_rng(2)
        x = leaf(rng.normal(size=(2, 3, 6, 6)))
        block = ConvBNReLU(3, 4, 3, rng)
        loss = ad.sum(ad.resample_nearest(block(x), (3, 3)))
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if node._backward_fn is not None and id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        nodes = list(nodes.values())
        assert len(nodes) == 5     # conv, batchnorm, relu, resample, sum
        ad.backward(loss)
        assert all(node._parents == () for node in nodes)
        assert x.grad is not None and block.conv.weight.grad is not None

    def test_conv_bn_relu_retains_only_its_outputs(self):
        """A training forward keeps the three maps the graph holds (conv,
        batch norm and relu outputs), not a padded copy of the input or the
        normalized map: backward recomputes those."""
        rng = np.random.default_rng(0)
        block = ConvBNReLU(8, 8, 3, rng)
        x = ad.Tensor(rng.normal(size=(2, 8, 32, 32)))
        block(x)      # sizes this thread's scratch buffers
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = block(x)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out._backward_fn is not None
        assert retained <= 3.5 * x.data.nbytes

    def test_conv2d_backward_saves_no_array(self):
        """conv2d's backward holds its parents, not copies of them: no closure
        cell of its backward function (or of a helper it calls) is an array."""
        rng = np.random.default_rng(4)
        out = ad.conv2d(leaf(rng.normal(size=(2, 3, 6, 6))),
                        leaf(rng.normal(size=(4, 3, 3, 3))),
                        leaf(rng.normal(size=4)), stride=2, padding=1)
        fns, saved = [out._backward_fn], []
        while fns:
            for cell in fns.pop().__closure__ or ():
                saved.append(cell.cell_contents)
                if isinstance(saved[-1], types.FunctionType):
                    fns.append(saved[-1])
        assert saved
        assert not any(isinstance(v, np.ndarray) for v in saved)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            ad.backward(leaf([1.0, 2.0]))

    def test_no_grad_blocks_graph(self):
        x = leaf([1.0])
        with ad.no_grad():
            y = x * 2.0
        assert y._parents == ()
        assert np.array_equal(y.data, [2.0])

    def test_no_grad_is_per_thread(self):
        entered, release = threading.Event(), threading.Event()

        def worker():
            with ad.no_grad():
                entered.set()
                release.wait(timeout=30)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert entered.wait(timeout=30)
            x = leaf([1.0])
            assert (x * 2.0)._parents   # recorded: the no_grad is the worker's
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_index_rows_accumulates_duplicates(self):
        x = leaf(np.zeros((3, 2)))
        out = ad.index_rows(x, np.array([1, 1, 0]))
        ad.backward(ad.sum(out))
        assert np.array_equal(x.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])

    def test_unbroadcast_sums_over_expanded_axes(self):
        a = leaf(np.zeros((2, 3)))
        b = leaf(np.zeros(3))
        ad.backward(ad.sum(ad.add(a, b)))
        assert np.array_equal(b.grad, [2.0, 2.0, 2.0])
        c = leaf(np.zeros((2, 1)))
        ad.backward(ad.sum(ad.add(a, c)))
        assert np.array_equal(c.grad, [[3.0], [3.0]])

    def test_batchnorm_train_updates_running_stats(self):
        rng = np.random.default_rng(3)
        x = leaf(rng.normal(loc=2.0, size=(4, 3, 2, 2)))
        mean, var = ad.Tensor(np.zeros(3)), ad.Tensor(np.ones(3))
        out = ad.batchnorm(x, leaf(np.ones(3)), leaf(np.zeros(3)), mean, var,
                           training=True, momentum=0.1)
        assert np.array_equal(mean.data, 0.1 * x.data.mean(axis=(0, 2, 3)))
        assert np.array_equal(var.data, 0.9 + 0.1 * x.data.var(axis=(0, 2, 3)))
        # normalized output has near-zero mean per channel
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)

    def test_batchnorm_eval_is_deterministic_affine(self):
        x = leaf(np.ones((1, 2, 2, 2)))
        mean, var = ad.Tensor([1.0, 0.0]), ad.Tensor([1.0, 4.0])
        out = ad.batchnorm(x, leaf(np.ones(2)), leaf(np.zeros(2)), mean, var,
                           training=False, eps=0.0)
        assert np.allclose(out.data[0, 0], 0.0)
        assert np.allclose(out.data[0, 1], 0.5)


def _im2col(x, kh, kw, stride, pad):
    """Reference lowering: every kernel tap's strided window, stacked."""
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def _direct_conv(x, w, b, stride, pad):
    """Nested-loop convolution and its x, weight and bias gradients for the
    upstream gradient g: returns (out, grad_fn(g) -> (gx, gw, gb))."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.empty((n, f, oh, ow))
    for b_ in range(n):
        for r in range(oh):
            for q in range(ow):
                win = xp[b_, :, r * stride:r * stride + k, q * stride:q * stride + k]
                out[b_, :, r, q] = (w * win).sum(axis=(1, 2, 3)) + b

    def grads(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w)
        for b_ in range(n):
            for r in range(oh):
                for q in range(ow):
                    rs, qs = r * stride, q * stride
                    win = xp[b_, :, rs:rs + k, qs:qs + k]
                    gw += g[b_, :, r, q][:, None, None, None] * win
                    gxp[b_, :, rs:rs + k, qs:qs + k] += np.tensordot(
                        g[b_, :, r, q], w, axes=1)
        return gxp[:, :, pad:pad + h, pad:pad + wd], gw, g.sum(axis=(0, 2, 3))

    return out, grads


class TestProperties:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sum_linearity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        lhs = ad.sum(ad.add(ad.Tensor(a), ad.Tensor(b))).data
        assert lhs == pytest.approx(a.sum() + b.sum(), rel=1e-12, abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conv_linearity_in_input(self, seed):
        rng = np.random.default_rng(seed)
        x1 = rng.normal(size=(1, 2, 4, 4))
        x2 = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3))
        c = lambda x: ad.conv2d(ad.Tensor(x), ad.Tensor(w), padding=1).data
        assert np.allclose(c(x1 + x2), c(x1) + c(x2), atol=1e-9)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3]),
           st.sampled_from([1, 3]), st.sampled_from([1, 2]))
    @settings(max_examples=25, deadline=None)
    def test_conv_weight_grad_matches_einsum_reference(self, seed, n, k, stride):
        rng = np.random.default_rng(seed)
        pad = k // 2
        x = rng.normal(size=(n, 3, 7, 6))
        weight = leaf(rng.normal(size=(4, 3, k, k)))
        out = ad.conv2d(ad.Tensor(x), weight, stride=stride, padding=pad)
        g = rng.normal(size=out.data.shape)
        ad.backward(ad.sum(ad.mul(out, g)))
        cols, oh, ow = _im2col(x, k, k, stride, pad)
        ref = np.einsum("nfl,ncl->fc", g.reshape(n, 4, oh * ow), cols)
        ref = ref.reshape(weight.data.shape)
        assert np.max(np.abs(weight.grad - ref)) <= 1e-12 * np.max(np.abs(ref))

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]),
           st.sampled_from([1, 3, 5]), st.sampled_from([1, 2, 3]),
           st.sampled_from([0, 1, 2]), st.integers(5, 8), st.integers(5, 8))
    @settings(max_examples=60, deadline=None)
    def test_conv_matches_nested_loop_convolution(self, seed, n, k, stride, pad, h, w):
        if h == w:
            w += 1      # non-square, so row and column offsets cannot be swapped
        rng = np.random.default_rng(seed)
        x, weight, bias = (leaf(rng.normal(size=shape))
                           for shape in ((n, 3, h, w), (4, 3, k, k), (4,)))
        out = ad.conv2d(x, weight, bias, stride=stride, padding=pad)
        ref, ref_grads = _direct_conv(x.data, weight.data, bias.data, stride, pad)
        g = rng.normal(size=ref.shape)
        ad.backward(ad.sum(ad.mul(out, g)))
        pairs = zip((out.data, x.grad, weight.grad, bias.grad),
                    (ref,) + ref_grads(g))
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_segment_mean_matches_split_means(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 2))
        starts = np.array([0, 4, 7])
        out = ad.segment_mean(ad.Tensor(x), starts).data
        expect = np.stack([x[0:4].mean(0), x[4:7].mean(0), x[7:].mean(0)])
        assert np.allclose(out, expect, atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bilinear_at_integer_coords_is_exact_lookup(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(1, 2, 5, 6))
        ys = rng.integers(0, 5, size=(1, 2, 3))
        xs = rng.integers(0, 6, size=(1, 2, 3))
        grid = np.stack([xs, ys], axis=-1).astype(np.float64)
        out = ad.bilinear_sample(ad.Tensor(m), grid).data
        expect = m[0, :, ys[0], xs[0]].transpose(2, 0, 1)[None]
        assert np.array_equal(out, expect)
