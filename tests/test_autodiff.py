"""Unit and property tests for the autodiff core: forward semantics against
numpy, backward correctness against hand-derived gradients, graph mechanics.
Exhaustive finite-difference coverage lives in fmfdet.gradcheck.
"""
import inspect
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmfdet import autodiff as ad
from fmfdet import gradcheck
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
        assert np.array_equal((a * 2.0).data, [2.0, 4.0])

    def test_relu_and_sigmoid(self):
        x = leaf([-2.0, 0.0, 3.0])
        assert np.array_equal(ad.relu(x).data, [0.0, 0.0, 3.0])
        s = ad.sigmoid(leaf([0.0, 100.0, -100.0])).data
        assert s[0] == 0.5
        assert s[1] == pytest.approx(1.0)
        assert s[2] == pytest.approx(0.0)
        assert np.all(np.isfinite(s))

    def test_sum_mean(self):
        x = leaf(np.arange(12.0).reshape(3, 4))
        assert ad.sum(x).data == x.data.sum()

    def test_conv_rows_shape_guard(self):
        with pytest.raises(ShapeError):
            ad.conv_rows(leaf(np.ones((2, 3, 4))), leaf(np.ones((2, 4))))
        with pytest.raises(ShapeError):
            ad.conv_rows(leaf(np.ones((2, 3))), leaf(np.ones((2, 4))))

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

    def test_maxpool_uses_neg_inf_padding(self):
        x = leaf(-np.ones((1, 1, 3, 3)))
        out = ad.maxpool2d(x)
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
        cells = np.array([0, 2, 3, 5, 11])  # iy * 4 + ix
        grid = ad.scatter_to_grid(leaf(feats), cells, dims=(4, 3))
        assert grid.data.shape == (1, 3, 3, 4)
        back = ad.gather_pixels(grid, *np.divmod(cells, 4))
        assert np.array_equal(back.data, feats)

    def test_scatter_rejects_duplicates_and_out_of_grid(self):
        feats = leaf(np.ones((2, 1)))
        for cells in ([0, 0], [3, 1], [-1, 0], [0, 4]):  # duplicate, unsorted, outside
            with pytest.raises(IndexError):
                ad.scatter_to_grid(feats, np.array(cells), (2, 2))

    def test_bilinear_sample_interpolates(self):
        m = np.zeros((1, 1, 2, 2))
        m[0, 0] = [[0.0, 1.0], [2.0, 3.0]]
        grid = np.array([[[0.5, 0.5]]])
        out = ad.bilinear_sample(leaf(m), grid)
        assert out.data[0, 0, 0, 0] == pytest.approx(1.5)

    def test_bilinear_sample_zero_outside(self):
        m = leaf(np.ones((1, 1, 3, 3)))
        grid = np.array([[[-5.0, 0.0], [0.0, 7.0]]])
        out = ad.bilinear_sample(m, grid)
        assert np.array_equal(out.data[0, 0, 0], [0.0, 0.0])

    def test_bilinear_sample_sums_from_positive_zero(self):
        """A sample whose corner products are all -0.0 (a -0.0 pixel at an
        integer point, or a negative map read outside it, where every weight
        is zero) comes out +0.0: the corner sum starts at +0.0."""
        m = -np.arange(1.0, 13.0).reshape(1, 1, 3, 4)
        m[0, 0, 1, 1] = -0.0
        grid = np.array([[[1.0, 1.0], [-5.0, 0.0], [1.0, 9.0]],
                         [[3.5, 1.0], [-0.5, 0.0], [2.0, 2.0]]])
        for dtype in (np.float32, np.float64):
            out = ad.bilinear_sample(ad.Tensor(m.astype(dtype)), grid).data[0, 0]
            want = np.array([[0.0, 0.0, 0.0], [-4.0, -0.5, -11.0]], dtype)
            assert out.tobytes() == want.tobytes()

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

    def test_second_backward_through_a_warp_raises(self):
        rng = np.random.default_rng(8)
        m = leaf(rng.normal(size=(1, 2, 4, 5)))
        out = ad.bilinear_sample(m, rng.uniform(-1, 5, size=(3, 4, 2)))
        ad.backward(ad.sum(ad.mul(out, rng.normal(size=out.data.shape))))
        with pytest.raises(StateError, match="already freed"):
            ad.backward(ad.sum(out))

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
        assert len(nodes) == 4     # conv, batchnorm (with its relu), resample, sum
        ad.backward(loss)
        assert all(node._parents == () for node in nodes)
        assert x.grad is not None and block.conv.weight.grad is not None

    def test_conv_bn_relu_retains_only_its_outputs(self):
        """A training forward keeps the two maps the graph holds (the conv
        output and the batch norm's, which its relu clamps in place), not a
        padded copy of the input or the normalized map: backward recomputes
        those."""
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
        assert retained <= 2.5 * x.data.nbytes

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

    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm_backward_saves_only_statistics_and_its_output(self, training):
        """batchnorm's backward holds per-channel arrays and its own output,
        whose sign is the relu mask: no copy of x, of x_hat or of the mask."""
        rng = np.random.default_rng(6)
        out = ad.batchnorm(leaf(rng.normal(size=(2, 3, 4, 4))), leaf(np.ones(3)),
                           leaf(np.zeros(3)), ad.Tensor(np.zeros(3)),
                           ad.Tensor(np.ones(3)), training=training)
        fns, saved = [out._backward_fn], []
        while fns:
            for cell in fns.pop().__closure__ or ():
                saved.append(cell.cell_contents)
                if isinstance(saved[-1], types.FunctionType):
                    fns.append(saved[-1])
        arrays = [v for v in saved if isinstance(v, np.ndarray)]
        assert any(a is out.data for a in arrays)
        assert all(a is out.data or a.shape == (3,) for a in arrays)

    @pytest.mark.parametrize("op", ["gather_pixels", "conv_rows"])
    def test_row_ops_save_only_parents_and_index_arrays(self, op):
        """gather_pixels' backward keeps its index arrays, conv_rows' none;
        neither closes over a float array, such as a reshaped weight."""
        rng = np.random.default_rng(5)
        x = leaf(rng.normal(size=(1, 3, 6, 6)))
        rows = ad.gather_pixels(x, [0, 5, 2], [1, 5, 0], k=3)
        if op == "conv_rows":
            rows = ad.conv_rows(rows, leaf(rng.normal(size=(4, 3, 3, 3))),
                                leaf(rng.normal(size=4)))
        fns, saved = [rows._backward_fn], []
        while fns:
            for cell in fns.pop().__closure__ or ():
                saved.append(cell.cell_contents)
                if isinstance(saved[-1], types.FunctionType):
                    fns.append(saved[-1])
        arrays = [v for v in saved if isinstance(v, np.ndarray)]
        assert not any(a.dtype.kind == "f" for a in arrays)
        assert (op == "conv_rows") == (not arrays)

    def test_bilinear_backward_saves_its_corner_table_only(self):
        """bilinear_sample's backward holds the integer flat indices of the
        four corners and their weights, [4, Hg*Wg] each, with no channel or
        batch axis: nothing map-sized and no tensor (the graph holds its
        parent)."""
        rng = np.random.default_rng(7)
        m = leaf(rng.normal(size=(2, 3, 5, 6)))
        out = ad.bilinear_sample(m, rng.uniform(-2, 7, size=(4, 5, 2)))
        fns, saved = [out._backward_fn], []
        while fns:
            for cell in fns.pop().__closure__ or ():
                saved.append(cell.cell_contents)
                if isinstance(saved[-1], types.FunctionType):
                    fns.append(saved[-1])
        assert not any(isinstance(v, ad.Tensor) for v in saved)
        arrays = [v for v in saved if isinstance(v, np.ndarray)]
        assert sorted(a.dtype.kind for a in arrays) == ["f", "i"]
        assert all(a.shape == (4, 20) for a in arrays)

    @pytest.mark.parametrize("op", ["focal", "l1_mean"])
    def test_loss_ops_save_no_float_array_but_the_target(self, op):
        """A loss op's backward recomputes z, its masks and weights from its
        parent and the target it was given; the target is the only float
        array it closes over, and it is the caller's array, not a copy."""
        rng = np.random.default_rng(6)
        pred = leaf(rng.uniform(0.2, 0.8, size=(1, 2, 4, 5)))
        target = np.where(rng.random(pred.shape) < 0.3, 1.0, 0.5)
        out = (ad.focal(pred, target, 2.0, 4.0) if op == "focal"
               else ad.l1_mean(pred, target))
        fns, saved = [out._backward_fn], []
        while fns:
            for cell in fns.pop().__closure__ or ():
                saved.append(cell.cell_contents)
                if isinstance(saved[-1], types.FunctionType):
                    fns.append(saved[-1])
        arrays = [v for v in saved if isinstance(v, np.ndarray) and v.dtype.kind == "f"]
        assert arrays and all(np.shares_memory(a, target) for a in arrays)

    @pytest.mark.parametrize("op", ["focal", "l1_mean"])
    def test_loss_ops_are_float64_and_match_the_float64_cast(self, op):
        rng = np.random.default_rng(7)
        pred = rng.uniform(0.0, 1.0, size=(1, 2, 4, 5)).astype(np.float32)
        pred[0, 0, 0, :2] = (0.0, 1.0)       # clipped on both sides
        target = np.where(rng.random(pred.shape) < 0.3, 1.0, rng.uniform(size=pred.shape))
        grads = []
        for dtype in (np.float32, np.float64):
            x = ad.Tensor(pred, requires_grad=True, dtype=dtype)
            out = (ad.focal(x, target, 2.0, 4.0) if op == "focal"
                   else ad.l1_mean(x, target))
            ad.backward(out)
            assert out.data.dtype == np.float64 and x.grad.dtype == np.float64
            grads.append((out.data, x.grad))
        assert grads[0][0] == grads[1][0]
        assert np.array_equal(grads[0][1], grads[1][1])
        if op == "focal":       # no gradient where the clip binds
            assert np.all(grads[0][1][0, 0, 0, :2] == 0.0)

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
                           training=True)
        assert np.array_equal(mean.data, 0.1 * x.data.mean(axis=(0, 2, 3)))
        assert np.array_equal(var.data, 0.9 + 0.1 * x.data.var(axis=(0, 2, 3)))
        # the output is the relu of the normalized map
        ref = _batchnorm_train_reference(x.data, np.ones(3), np.zeros(3),
                                         np.zeros(3), np.ones(3))[0]
        assert np.allclose(ref.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        assert np.allclose(out.data, np.maximum(ref, 0.0), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_deferred_running_stats_replay_to_the_same_bytes(self, dtype):
        """Inside deferred_stats training batch norm leaves the running
        statistics alone and records its moves; replaying them in order
        gives the bytes of moving them in place, and the output is unchanged."""
        rng = np.random.default_rng(4)
        xs = [leaf(rng.normal(loc=1.0, size=(2, 3, 4, 4)).astype(dtype)) for _ in range(2)]
        gamma, beta = leaf(np.ones(3, dtype)), leaf(np.zeros(3, dtype))
        stats = [ad.Tensor(np.zeros(3, dtype)), ad.Tensor(np.ones(3, dtype))]
        deferred = [ad.Tensor(np.zeros(3, dtype)), ad.Tensor(np.ones(3, dtype))]
        direct = [ad.batchnorm(x, gamma, beta, *stats, training=True) for x in xs]
        with ad.deferred_stats() as records:
            moved = [ad.batchnorm(x, gamma, beta, *deferred, training=True) for x in xs]
        assert np.array_equal(deferred[0].data, np.zeros(3))
        assert np.array_equal(deferred[1].data, np.ones(3))
        assert [r[:2] for r in records] == [tuple(deferred)] * 2
        for record in records:
            ad.update_running_stats(*record)
        assert ad._grad_mode.stats is None
        for a, b in zip(stats + direct, deferred + moved):
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("shape", [(37, 5), (1, 3, 8, 8), (2, 4, 6, 5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batchnorm_train_cancels_a_per_channel_shift(self, seed, shape):
        """Train-mode BN subtracts the batch mean, so a per-channel bias just
        before it changes neither the output nor, to round-off, the loss.
        That is why the PFN projection and every conv feeding a BN have no
        bias (Ioffe & Szegedy, arXiv 1502.03167, sec. 3.2)."""
        rng = np.random.default_rng(seed)
        c = shape[1]
        x = leaf(rng.normal(1.5, 2.0, size=shape))
        b = leaf(rng.normal(0.0, 3.0, size=(1, c) + (1,) * (len(shape) - 2)))
        gamma, beta = leaf(rng.uniform(0.5, 2.0, c)), leaf(rng.normal(size=c))

        def bn(inp):
            return ad.batchnorm(inp, gamma, beta, ad.Tensor(np.zeros(c)),
                                ad.Tensor(np.ones(c)), training=True)

        plain, shifted = bn(x), bn(ad.add(x, b))
        assert np.allclose(shifted.data, plain.data, rtol=0.0, atol=1e-12)
        ad.backward(ad.sum(shifted * ad.Tensor(rng.normal(size=shape))))
        assert np.abs(b.grad).max() <= 1e-12 * np.abs(x.grad).max()

    def test_batchnorm_eval_is_deterministic_affine(self):
        x = leaf(np.ones((1, 2, 2, 2)))
        mean, var = ad.Tensor([1.0, 0.0]), ad.Tensor([1.0, 4.0])
        out = ad.batchnorm(x, leaf(np.ones(2)), leaf(np.zeros(2)), mean, var,
                           training=False)
        assert np.allclose(out.data[0, 0], 0.0)
        assert np.allclose(out.data[0, 1], 0.5)


@pytest.mark.parametrize("name", ["batchnorm_train", "batchnorm_eval"])
def test_gradcheck_batchnorm_cases_stay_off_the_relu_kink(name):
    """c03's batchnorm cases check both relu branches: in every channel the
    pre-relu map has both signs, and no value lies within 0.05 of zero, where
    a central difference would straddle the kink. Negating gamma and beta
    negates that map, so it is op(x, gamma, beta) - op(x, -gamma, -beta)."""
    (seed, build), = [(s, b) for n, s, b in gradcheck._OP_CASES if n == name]
    (x, gamma, beta), op = build(np.random.default_rng(seed))
    pre = (op(ad.Tensor(x), ad.Tensor(gamma), ad.Tensor(beta)).data
           - op(ad.Tensor(x), ad.Tensor(-gamma), ad.Tensor(-beta)).data)
    assert (pre > 0).any(axis=(0, 2, 3)).all() and (pre < 0).any(axis=(0, 2, 3)).all()
    assert np.abs(pre).min() >= 0.05


def test_gradcheck_covers_every_differentiable_op(monkeypatch):
    """Every autodiff function that builds a graph node has a c03 op case
    that calls it; conv_rows with and without a bias, and batchnorm in both
    modes. Each op is replaced by a spy that records its variant."""
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__
           and not name.startswith("_") and "_node(" in inspect.getsource(fn)}
    variant = {"conv_rows": lambda args: args["bias"] is not None,
               "batchnorm": lambda args: bool(args["training"])}
    seen = set()
    for name in ops:
        def spy(*args, _name=name, _fn=getattr(ad, name), **kwargs):
            bound = inspect.signature(_fn).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.add((_name, variant.get(_name, lambda _: None)(bound.arguments)))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ad, name, spy)
    for _name, seed, build in gradcheck._OP_CASES:
        inputs, op = build(np.random.default_rng(seed))
        op(*(ad.Tensor(x, requires_grad=True) for x in inputs))
    wanted = {(name, None) for name in ops - set(variant)}
    wanted |= {(name, flag) for name in variant for flag in (False, True)}
    assert variant.keys() <= ops
    assert wanted <= seen, sorted(wanted - seen, key=str)


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


def _batchnorm_train_reference(x, gamma, beta, running_mean, running_var,
                               eps=1e-5, momentum=0.1):
    """The one-pass train-mode batch norm this module had before its
    two-pass rewrite: returns (out, new running mean, new running var,
    grad_fn(g) -> (gx, ggamma, gbeta))."""
    axes = (0,) + tuple(range(2, x.ndim))
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    mu, var = x.mean(axis=axes), x.var(axis=axes)
    new_mean = (1.0 - momentum) * running_mean + momentum * mu
    new_var = (1.0 - momentum) * running_var + momentum * var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu.reshape(shape)) * inv_std.reshape(shape)
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)

    def grads(g):
        gxhat = g * gamma.reshape(shape)
        gx = (gxhat - gxhat.mean(axis=axes).reshape(shape)
              - xhat * (gxhat * xhat).mean(axis=axes).reshape(shape))
        gx *= inv_std.reshape(shape)
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return out, new_mean, new_var, grads


def _bilinear_backward_reference(map_shape, grid, g):
    """bilinear_sample's map gradient as four np.add.at scatters, one per
    corner and batch item, the way this module computed it before its
    segment-sum form."""
    n, c, h, w = map_shape
    gx, gy = grid[..., 0], grid[..., 1]
    gx = np.where(np.abs(gx - np.round(gx)) < 1e-7, np.round(gx), gx)
    gy = np.where(np.abs(gy - np.round(gy)) < 1e-7, np.round(gy), gy)
    x0, y0 = np.floor(gx).astype(np.int64), np.floor(gy).astype(np.int64)
    wx, wy = gx - x0, gy - y0
    gm = np.zeros(map_shape)
    for dy, dx, cw in ((0, 0, (1 - wy) * (1 - wx)), (0, 1, (1 - wy) * wx),
                       (1, 0, wy * (1 - wx)), (1, 1, wy * wx)):
        yy, xx = y0 + dy, x0 + dx
        cw = cw * ((yy >= 0) & (yy < h) & (xx >= 0) & (xx < w))
        yy, xx = np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)
        for b in range(n):
            np.add.at(gm[b].transpose(1, 2, 0), (yy, xx), (g[b] * cw).transpose(1, 2, 0))
    return gm


def _close(got, want, rel):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


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
           st.sampled_from([0, 1, 2]), st.integers(5, 8), st.integers(5, 8),
           st.integers(1, 3))
    @example(seed=1, n=2, k=3, stride=2, pad=2, h=5, w=7, live=2)
    @example(seed=2, n=1, k=5, stride=1, pad=0, h=5, w=6, live=3)
    @settings(max_examples=60, deadline=None)
    def test_conv_matches_nested_loop_convolution(self, seed, n, k, stride, pad, h, w,
                                                  live):
        """Each draw checks conv2d with the gradient on every pixel of an
        h x w map, then the row path at `live` output pixels of its first
        map: gather_pixels' k x k windows there, through conv_rows, with the
        gradient on those pixels only. Output pixel (oy, ox) reads the window
        centred at (oy, ox) * stride - pad + k // 2."""
        if h == w:
            w += 1      # non-square, so row and column offsets cannot be swapped
        rng = np.random.default_rng(seed)

        def check(pairs):
            for got, want in pairs:
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        x, weight, bias = (leaf(rng.normal(size=shape))
                           for shape in ((n, 3, h, w), (4, 3, k, k), (4,)))
        out = ad.conv2d(x, weight, bias, stride=stride, padding=pad)
        ref, ref_grads = _direct_conv(x.data, weight.data, bias.data, stride, pad)
        g = rng.normal(size=ref.shape)
        ad.backward(ad.sum(ad.mul(out, g)))
        check(zip((out.data, x.grad, weight.grad, bias.grad), (ref,) + ref_grads(g)))

        x, weight, bias = (leaf(t.data) for t in (x, weight, bias))
        x.data = x.data[:1]
        ref, ref_grads = _direct_conv(x.data, weight.data, bias.data, stride, pad)
        oh, ow = ref.shape[2:]
        oy, ox = np.divmod(rng.choice(oh * ow, size=min(live, oh * ow), replace=False), ow)
        centre = k // 2 - pad
        rows = ad.conv_rows(ad.gather_pixels(x, oy * stride + centre,
                                             ox * stride + centre, k=k), weight, bias)
        g_rows = rng.normal(size=rows.data.shape)
        ad.backward(ad.sum(ad.mul(rows, g_rows)))
        g = np.zeros_like(ref)
        g[0, :, oy, ox] = g_rows
        check(zip((rows.data, x.grad, weight.grad, bias.grad),
                  (ref[0, :, oy, ox],) + ref_grads(g)))

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3, 5]),
           st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_gather_windows_match_padded_brute_force(self, seed, k, pixels):
        """Rows are the zero-padded k x k windows, channel-major then taps
        row-major; backward adds each row back onto its window."""
        rng = np.random.default_rng(seed)
        x = leaf(rng.normal(size=(1, 3, 5, 6)))
        ys, xs = np.array(pixels, dtype=np.int64).reshape(-1, 2).T
        rows = ad.gather_pixels(x, ys, xs, k=k)
        g = rng.normal(size=(ys.size, 3 * k * k))
        ad.backward(ad.sum(ad.mul(rows, g)))
        r = k // 2
        padded = np.pad(x.data[0], ((0, 0), (r, r), (r, r)))
        g_padded = np.zeros_like(padded)
        for m, (y, x_) in enumerate(zip(ys, xs)):
            assert np.array_equal(rows.data[m],
                                  padded[:, y:y + k, x_:x_ + k].reshape(-1))
            g_padded[:, y:y + k, x_:x_ + k] += g[m].reshape(3, k, k)
        assert rows.data.shape == g.shape
        assert np.allclose(x.grad[0], g_padded[:, r:r + 5, r:r + 6], rtol=0, atol=1e-12)

    def test_gather_single_pixels_is_plain_indexing(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 4, 5, 6)).astype(np.float32)
        ys, xs = [0, 4, 4, 2], [5, 0, 0, 3]
        rows = ad.gather_pixels(ad.Tensor(x), ys, xs).data
        assert rows.dtype == np.float32
        assert np.array_equal(rows, x[0, :, ys, xs])

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
        ys = rng.integers(0, 5, size=(2, 3))
        xs = rng.integers(0, 6, size=(2, 3))
        grid = np.stack([xs, ys], axis=-1).astype(np.float64)
        out = ad.bilinear_sample(ad.Tensor(m), grid).data
        expect = m[:, :, ys, xs]
        assert np.array_equal(out, expect)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_maxpool_is_the_padded_3x3_window_max(self, seed, h, w):
        """Each output is the max of the nine -inf-padded taps around its
        pixel; small integers make ties common."""
        rng = np.random.default_rng(seed)
        x = rng.integers(-3, 3, size=(2, 3, h, w)).astype(np.float64)
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
        taps = [padded[:, :, i:i + h, j:j + w] for i in range(3) for j in range(3)]
        assert np.array_equal(ad.maxpool2d(x).data, np.max(taps, axis=0))

    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([(1, 3, 4, 5), (2, 3, 4, 5), (2, 4, 1, 7), (9, 3)]))
    @settings(max_examples=25, deadline=None)
    def test_batchnorm_train_matches_one_pass_reference(self, seed, shape):
        """batchnorm is the reference followed by relu: its output is the
        reference's clamped at zero, and its gradients are the reference's
        for the upstream gradient masked where that output is positive."""
        rng = np.random.default_rng(seed)
        c = shape[1]
        x = leaf(rng.normal(loc=1.5, scale=2.0, size=shape))
        gamma, beta = leaf(rng.uniform(0.5, 1.5, size=c)), leaf(rng.normal(size=c))
        mean = ad.Tensor(rng.normal(size=c))
        var = ad.Tensor(rng.uniform(0.5, 2.0, size=c))
        ref, ref_mean, ref_var, ref_grads = _batchnorm_train_reference(
            x.data, gamma.data, beta.data, mean.data, var.data)
        out = ad.batchnorm(x, gamma, beta, mean, var, training=True)
        g = rng.normal(size=shape)
        ad.backward(ad.sum(ad.mul(out, g)))
        pairs = zip((out.data, mean.data, var.data, x.grad, gamma.grad, beta.grad),
                    (np.maximum(ref, 0.0), ref_mean, ref_var) + ref_grads(g * (ref > 0)))
        for got, want in pairs:
            _close(got, want, 1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]),
           st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_bilinear_backward_matches_add_at_reference(self, seed, n, h, w):
        """Quarter-pixel grids over and beyond the map: many samples share a
        target corner, some sit on integers, and some read outside."""
        rng = np.random.default_rng(seed)
        m = leaf(rng.normal(size=(n, 3, h, w)))
        hg, wg = rng.integers(1, 8, size=2)
        grid = np.stack([rng.integers(-6, 4 * w + 2, size=(hg, wg)),
                         rng.integers(-6, 4 * h + 2, size=(hg, wg))], axis=-1) / 4.0
        out = ad.bilinear_sample(m, grid)
        g = rng.normal(size=out.data.shape)
        ad.backward(ad.sum(ad.mul(out, g)))
        _close(m.grad, _bilinear_backward_reference(m.data.shape, grid, g), 1e-12)


def _eval_block(rng, cin, cout, stride, dtype):
    """An eval-mode ConvBNReLU in `dtype` with batch-norm statistics and
    affine parameters far from the identity, so a fold would round."""
    block = ConvBNReLU(cin, cout, 3, rng, stride=stride)
    bn = block.bn
    bn.gamma.data = rng.uniform(0.3, 1.7, size=cout)
    bn.beta.data = rng.normal(size=cout)
    bn.running_mean.data = rng.normal(size=cout)
    bn.running_var.data = rng.uniform(0.2, 3.0, size=cout)
    for _key, t in block.named_state():
        t.data = t.data.astype(dtype)
    return block.eval()


class TestFusedEvalEpilogue:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_the_recorded_conv_batchnorm_chain(self, dtype, stride, n):
        """In eval mode under no_grad a ConvBNReLU runs batch norm and its
        relu in the conv's epilogue: the result equals the recorded
        conv2d -> batchnorm chain in eval mode bit for bit, signed zeros
        included. Folding the scale into the weights, or reordering the
        scale, shift and relu, rounds differently and fails this."""
        rng = np.random.default_rng(100 * stride + n)
        block = _eval_block(rng, 3, 5, stride, dtype)
        x = rng.normal(size=(n, 3, 9, 10)).astype(dtype)
        x[:, :, 0] = -0.0
        x[:, 1, :, ::3] = 0.0
        reference = block.bn(block.conv(ad.Tensor(x)))
        assert reference._backward_fn is not None     # two recorded nodes
        with ad.no_grad():
            fused = block(ad.Tensor(x))
        assert fused.data.dtype == reference.data.dtype == dtype
        assert np.array_equal(fused.data, reference.data)
        assert fused.data.tobytes() == reference.data.tobytes()
        assert (fused.data == 0).any() and (fused.data > 0).any()

    def test_is_one_conv2d_call_and_no_batchnorm(self, monkeypatch):
        """The fused block calls the autodiff module's conv2d, where a
        wrapper (a tracer's) sees it, and no batchnorm; outside no_grad, or
        in train mode, the block is the two nodes."""
        calls = []
        for name in ("conv2d", "batchnorm"):
            def spy(*args, _fn=getattr(ad, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(ad, name, spy)
        rng = np.random.default_rng(3)
        block = _eval_block(rng, 2, 3, 1, np.float64)
        x = ad.Tensor(rng.normal(size=(1, 2, 5, 5)))
        with ad.no_grad():
            block(x)
        assert calls == ["conv2d"]
        block(x)
        with ad.no_grad():
            block.train()(x)
        assert calls == ["conv2d"] + ["conv2d", "batchnorm"] * 2

    def test_epilogue_refuses_a_recorded_graph_or_a_bias(self):
        rng = np.random.default_rng(4)
        block = _eval_block(rng, 2, 3, 1, np.float64)
        bn = block.bn
        stats = (bn.gamma, bn.beta, bn.running_mean, bn.running_var)
        x = ad.Tensor(rng.normal(size=(1, 2, 5, 5)))
        with pytest.raises(StateError, match="no_grad"):
            ad.conv2d(x, block.conv.weight, padding=1, bn_relu=stats)
        with ad.no_grad(), pytest.raises(StateError, match="no bias"):
            ad.conv2d(x, block.conv.weight, np.zeros(3), padding=1, bn_relu=stats)


class TestSegmentMaxForward:
    @given(lengths=st.lists(st.integers(1, 25), min_size=1, max_size=12),
           c=st.sampled_from([1, 12, 24]), dtype=st.sampled_from([np.float32, np.float64]),
           order=st.sampled_from("CF"),
           specials=st.sampled_from([(), (-0.0,), (np.inf, -np.inf), (np.nan,),
                                     (np.nan, np.inf, -np.inf, -0.0)]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_maximum_reduceat(self, lengths, c, dtype, order, specials, seed):
        """The rank-major rounds give np.maximum.reduceat's maxima. Values come
        from a pool of six, so rows tie often. With no -0.0 in the input the
        bytes agree too; with it they need not, since numpy's own reduce
        paths disagree on the sign of a +-0 tie (seen with C = 1 or
        F-ordered input, where reduceat takes a different loop)."""
        rng = np.random.default_rng(seed)
        pool = np.concatenate([rng.normal(size=4).round(1), [0.0, 1.0], specials])
        x = np.asarray(rng.choice(pool, size=(sum(lengths), c)), dtype=dtype, order=order)
        starts = np.cumsum(lengths) - lengths
        got = ad.segment_max(ad.Tensor(x), starts).data
        want = np.maximum.reduceat(x, starts, axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        if not np.signbit(x[x == 0]).any():
            assert got.tobytes() == want.tobytes()


class TestEvalBatchNormRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 31, 32, 33, 1000])
    @pytest.mark.parametrize("c", [3, 12])
    def test_equals_relu_of_scale_and_shift(self, m, c, dtype):
        """Eval batch norm of [M, C] rows runs 32-row blocks as long rows and
        the rest as rows; every element is still x * scale + shift, then the
        ReLU, with scale = gamma * (1 / sqrt(running_var + eps))."""
        rng = np.random.default_rng(m * c)
        x = rng.normal(size=(m, c)).astype(dtype)
        x[::5] = -0.0
        gamma, beta, mean = (rng.uniform(0.3, 1.7, c).astype(dtype),
                             rng.normal(size=c).astype(dtype), rng.normal(size=c).astype(dtype))
        var = rng.uniform(0.2, 3.0, c).astype(dtype)
        out = ad.batchnorm(ad.Tensor(x), gamma, beta, ad.Tensor(mean), ad.Tensor(var),
                           training=False).data
        scale = gamma * (1.0 / np.sqrt(var + 1e-5))
        want = np.maximum(x * scale + (beta - mean * scale), 0)
        assert out.dtype == want.dtype == dtype
        assert out.tobytes() == want.tobytes()
