"""Reverse-mode autodiff on numpy arrays, covering the pipeline's operator set.

Dense elementwise math, whole-tensor sum, the focal and L1 detection losses,
2D convolution / batch norm / 3x3 max pooling, the sparse scatter/gather ops
used to build pseudo-images, the one row GEMM (`conv_rows`), and bilinear map
sampling. Each op records its parents and a backward function; `backward`
walks the graph once in reverse topological order and accumulates gradients
on every tensor created with ``requires_grad=True``.

Memory contract: an op's backward function saves only what the graph already
holds (its parents and its own output, plus per-channel or index arrays) and
recomputes anything map-sized from them; a loss op also keeps the target
array it was given and recomputes its masks and weights from it, and
`bilinear_sample` keeps its corner table, which has no channel axis. So the
inputs of an op must not be mutated between its forward and the backward
through it. A training conv -> batch norm -> ReLU block keeps two maps, the
conv output and the batch norm's: `batchnorm` ends in its ReLU, in place.
In eval mode under no_grad the block keeps none: `conv2d` applies batch norm
and its ReLU in its epilogue.
`backward` frees the graph as it walks it, like PyTorch's
``retain_graph=False``: one backward per graph, and a second one through a
freed node raises StateError.

Dtypes: ops take float32 or float64 arrays (anything else is wrapped as
float64), and a result has the dtype ``np.result_type`` gives the operands it
is computed from; `bilinear_sample`'s follows the map alone, since its grid
is coordinates, and the two loss ops compute in float64 on every NumPy
version. So float32 data stays float32 only while every operand it meets is
float32 or a Python scalar: a float64 array upcasts the result, and so does a
NumPy float64 scalar or 0-d array under NumPy 2's promotion rules (NumPy 1.x
keeps float32 for those two).

Forward results are plain numpy and bit-deterministic for fixed inputs.

The running statistics of training-mode `batchnorm` are the one state a
forward writes. Inside a `deferred_stats` block (a per-thread context shaped
like `no_grad`) it records each move instead, so the forwards of a batch can
run in other processes and their moves still be replayed, in the batch's
order, onto one model (see `train.train`).
"""
from __future__ import annotations

import contextlib
import functools
import math
import numbers
import threading

import numpy as np

from .errors import ShapeError, StateError

_FLOAT_DTYPES = (np.float32, np.float64)


class _GradMode(threading.local):
    """Whether ops record the graph, and the list deferred_stats collects
    into (None: none), per thread: one thread's block must not switch
    either under another thread."""

    enabled = True
    stats = None


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording in this thread inside the block."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def grad_enabled():
    """Whether ops in this thread record the graph (False inside no_grad)."""
    return _grad_mode.enabled


@contextlib.contextmanager
def deferred_stats():
    """Inside the block, training-mode `batchnorm` in this thread leaves the
    running statistics as they are and appends (running_mean, running_var,
    batch mean, batch var) to the list the block yields, in call order.
    Replaying the records in that order through `update_running_stats`
    gives the bytes the updates would have: training never reads a running
    statistic, so when they move does not matter."""
    prev = _grad_mode.stats
    _grad_mode.stats = records = []
    try:
        yield records
    finally:
        _grad_mode.stats = prev


def update_running_stats(running_mean, running_var, mu, var):
    """Move batch norm's running statistics toward a batch's mean `mu` and
    variance `var` by _BN_MOMENTUM, rebinding their ``data``."""
    running_mean.data = (1.0 - _BN_MOMENTUM) * running_mean.data + _BN_MOMENTUM * mu
    running_var.data = (1.0 - _BN_MOMENTUM) * running_var.data + _BN_MOMENTUM * var


def accumulate_grad(tensor, g):
    """Add `g` into ``tensor.grad`` (a copy of `g` when it has none)."""
    tensor.grad = g.copy() if tensor.grad is None else tensor.grad + g


def _as_array(data, dtype=None):
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype not in _FLOAT_DTYPES:
        return arr.astype(np.float64)
    return arr


class Tensor:
    """N-dimensional value with an optional gradient.

    ``grad`` is populated by ``backward`` and accumulates across calls until
    its owner resets it (e.g. ``Module.zero_grad``). Tensors produced by ops
    are treated as immutable; mutate ``data`` only on leaves you own, and
    only once the backward through them has run (e.g. optimizer steps, which
    rebind it).
    After ``backward`` an op result keeps its ``data`` but no longer its
    parents or backward function.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    # -- introspection -----------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    def _needs_grad(self):
        return self.requires_grad or self._backward_fn is not None

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def item(self):
        return float(self.data.reshape(-1)[0])


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward_fn):
    """Create an op result; record the graph only when someone needs grads."""
    if _grad_mode.enabled and any(p._needs_grad() for p in parents):
        out = Tensor(data)
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        return out
    return Tensor(data)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# --------------------------------------------------------------------------
# elementwise / reduction ops
# --------------------------------------------------------------------------

def add(a, b):
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(data, (a, b), bw)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def bw(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), bw)


def relu(a):
    a = _wrap(a)
    data = np.maximum(a.data, 0)

    def bw(g):
        return (g * (a.data > 0),)

    return _node(data, (a,), bw)


def sigmoid(a):
    a = _wrap(a)
    e = np.exp(-np.abs(a.data))     # stable two-sided form: exp(-|x|) never overflows
    data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bw(g):
        return (g * data * (1.0 - data),)

    return _node(data, (a,), bw)


def sum(a):
    """Sum of all elements, as a 0-d tensor."""
    a = _wrap(a)
    return _node(a.data.sum(), (a,),
                 lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


# --------------------------------------------------------------------------
# losses: one float64 node each, whatever the input's dtype
# --------------------------------------------------------------------------

def focal(pred, target, alpha, beta):
    """Sum over pixels of the penalty-reduced focal term: with z = pred
    clipped to [1e-6, 1 - 1e-6], (1-z)^alpha log z where target == 1 and
    (1-target)^beta z^alpha log(1-z) elsewhere. The gradient reaches pred
    only where the clip leaves it as it is."""
    pred, target = _wrap(pred), np.asarray(target)

    def terms():
        x = pred.data.astype(np.float64, copy=False)
        z, y = np.clip(x, 1e-6, 1.0 - 1e-6), target.astype(np.float64, copy=False)
        return x, z, y == 1.0, (1.0 - y) ** beta

    _, z, pos, neg_w = terms()
    data = np.where(pos, (1.0 - z) ** alpha * np.log(z),
                    neg_w * z ** alpha * np.log(1.0 - z)).sum()

    def bw(g):
        x, z, pos, neg_w = terms()
        d_pos = (1.0 - z) ** alpha / z - alpha * (1.0 - z) ** (alpha - 1.0) * np.log(z)
        d_neg = neg_w * (alpha * z ** (alpha - 1.0) * np.log(1.0 - z)
                         - z ** alpha / (1.0 - z))
        return (g * np.where(pos, d_pos, d_neg) * (z == x),)

    return _node(data, (pred,), bw)


def l1_mean(a, target):
    """Mean of |a - target| over all elements, in float64; the gradient is
    sign(a - target) / n."""
    a, target = _wrap(a), np.asarray(target)
    if a.data.shape != target.shape:
        raise ShapeError(f"l1_mean: {a.data.shape} vs target {target.shape}")

    def diff():
        return np.subtract(a.data, target, dtype=np.float64)

    return _node(np.abs(diff()).mean(), (a,),
                 lambda g: (g * np.sign(diff()) / target.size,))


# --------------------------------------------------------------------------
# shape ops
# --------------------------------------------------------------------------

def concat_channels(*maps):
    """Concatenate [N,C,H,W] maps along the channel axis."""
    maps = [_wrap(m) for m in maps]
    shapes = [m.data.shape for m in maps]
    if any(sh[:1] + sh[2:] != shapes[0][:1] + shapes[0][2:] for sh in shapes):
        raise ShapeError(f"concat_channels: {' vs '.join(map(str, shapes))}")
    data = np.concatenate([m.data for m in maps], axis=1)
    split_at = np.cumsum([sh[1] for sh in shapes])[:-1]

    def bw(g):
        return tuple(np.split(g, split_at, axis=1))

    return _node(data, tuple(maps), bw)


# --------------------------------------------------------------------------
# conv / pool / norm
# --------------------------------------------------------------------------

_scratch = threading.local()
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1
_ROW_BLOCK = 32     # rows per long row in eval batch norm of [M, C] rows


def _buffer(role, shape, dtype):
    """An uninitialised view of this thread's scratch buffer for `role`,
    which grows to the largest shape asked for and is reused.

    Nothing may keep it past the call that asked for it: ops copy their
    results out of it, and backward functions rebuild what they need from
    the graph rather than saving it. Backward functions use it too, for
    arrays that never leave them; the gradients they return are fresh."""
    size = math.prod(shape)
    buf = getattr(_scratch, role, None)
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_scratch, role, buf)
    return buf[:size].reshape(shape)


@functools.lru_cache(maxsize=64)
def _conv_plan(h, w, kh, kw, s, pad):
    """conv2d's per-shape constants, cached since a model runs few shapes:
    the phase grid (hq, wq); for each phase a of the rows, then of the
    columns, (a, first phase index, first input index, count) of the input
    pixels it holds; and the taps (i, j, phase, offset)."""
    # one spare phase row: the last taps' slices run past the final row
    hq, wq = -(-(h + 2 * pad) // s) + 1, -(-(w + 2 * pad) // s)
    runs = []
    for size in (h, w):
        runs.append([])
        for a in range(s):
            first = max(0, -((a - pad) // s))
            start = a + s * first - pad
            runs[-1].append((a, first, start, len(range(start, size, s))))
    taps = tuple((i, j, (i % s) * s + j % s, (i // s) * wq + j // s)
                 for i in range(kh) for j in range(kw))
    return hq, wq, tuple(runs[0]), tuple(runs[1]), taps


def conv2d(x, weight, bias=None, stride=1, padding=0, bn_relu=None):
    """Cross-correlation of x [N,C,H,W] with weight [F,C,kh,kw].

    `padding` is symmetric zero padding in pixels; the output is
    H' = (H + 2 padding - kh) // stride + 1 (likewise W').

    `bn_relu` is for `layers.ConvBNReLU` in eval mode under no_grad alone:
    the (gamma, beta, running_mean, running_var) tensors of the batch norm
    that follows. The conv then writes batch norm's eval arithmetic and its
    ReLU straight from the accumulator, the same float ops in the same order
    as `batchnorm` on the conv's output, and returns a detached result.

    Kernel-offset form: the zero-padded input is split into stride x stride
    phases xp[a::s, b::s], each flattened with row width wq. Tap (i, j) then
    reads one contiguous slice of phase (i % s, j % s) at offset
    (i // s) * wq + j // s, so the conv is one GEMM per tap on that slice.
    Output rows come out wq wide; columns >= ow are dropped. The phases live
    in this thread's scratch buffer: backward refills them from x, which the
    graph holds as a parent, and gathers the input gradient phase by phase
    with the same offsets.
    """
    x, weight = _wrap(x), _wrap(weight)
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError("conv2d expects x [N,C,H,W] and weight [F,C,kh,kw]")
    f, cin, kh, kw = weight.data.shape
    if x.data.shape[1] != cin:
        raise ShapeError(f"conv2d channel mismatch: x has {x.data.shape[1]}, weight expects {cin}")
    if not isinstance(stride, numbers.Integral) or stride < 1:
        raise ShapeError(f"conv2d: stride must be a positive integer, got {stride!r}")
    if not isinstance(padding, numbers.Integral) or padding < 0:
        raise ShapeError(f"conv2d: padding must be a nonnegative integer, got {padding!r}")
    n, _, h, w = x.data.shape
    oh, ow = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d: {kh}x{kw} kernel does not fit the {h}x{w} input "
                         f"with padding {padding}")
    parents = [x, weight]
    if bias is not None:
        bias = _wrap(bias)
        if bias.data.shape != (f,):
            raise ShapeError("conv2d bias must have shape [F]")
        parents.append(bias)
    s, pad = stride, padding
    dtype = np.result_type(x.data, weight.data)
    hq, wq, rows, cols, taps = _conv_plan(h, w, kh, kw, s, pad)
    length = oh * wq

    def phases():
        if kh == kw == s == 1 and pad == 0 and x.data.dtype == dtype:
            return x.data.reshape(n, cin, 1, h * w)     # a 1x1 kernel reads x as it is
        xq = _buffer("phases", (n, cin, s, s, hq, wq), dtype)
        for a, ra, ha, na in rows:
            for b, qb, wb, nb in cols:
                phase = xq[:, :, a, b]
                phase[:, :, :ra] = phase[:, :, ra + na:] = 0
                phase[:, :, ra:ra + na, :qb] = phase[:, :, ra:ra + na, qb + nb:] = 0
                phase[:, :, ra:ra + na, qb:qb + nb] = x.data[:, :, ha::s, wb::s]
        return xq.reshape(n, cin, s * s, hq * wq)

    xq = phases()

    def taps_weight():
        return np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1), dtype=dtype)

    wt = taps_weight()

    # accumulate into contiguous buffers: numpy adds into strided views are
    # several times slower
    acc = _buffer("acc", (n, f, length), dtype)
    prod = _buffer("tap", (n, f, length), dtype)
    for t, (i, j, ph, off) in enumerate(taps):
        np.matmul(wt[i, j], xq[:, :, ph, off:off + length], out=acc if t == 0 else prod)
        if t:
            acc += prod
    out = acc.reshape(n, f, oh, wq)
    if bn_relu is not None:
        if _grad_mode.enabled or bias is not None:
            raise StateError("conv2d's batch-norm epilogue takes no bias and runs under no_grad")
        stats = [t.data for t in bn_relu]
        # in place on the whole accumulator, unless the statistics widen its dtype
        into = out if np.result_type(dtype, *stats) == dtype else None
        out = _eval_norm(out, *stats, out=into)[0]
        return _node(np.maximum(out[..., :ow], 0), (), None)
    out = out[..., :ow]
    out = out + bias.data.reshape(1, f, 1, 1) if bias is not None else out.copy()

    def bw(g):
        xq = phases()
        gq = _buffer("grad_phases", (s * s, n, cin, hq * wq), dtype)
        gq.fill(0)
        # g_pad[far + q] is g at output position q, zero in the dropped
        # columns, so phase position p collects wt^T @ g_pad[far + p - off];
        # g_pad and gq_tap reuse the forward's acc and tap scratch
        far = taps[-1][3]
        g_pad = _buffer("acc", (n, f, far + hq * wq), dtype)
        g_pad.fill(0)
        g_ext = g_pad[:, :, far:far + length]
        g_ext.reshape(n, f, oh, wq)[..., :ow] = g
        gw = np.empty((f, cin, kh, kw), dtype=dtype)
        gw_n = np.empty((n, f, cin), dtype=dtype)
        gq_tap = _buffer("tap", (n, cin, hq * wq), dtype)
        wt = taps_weight()
        for i, j, ph, off in taps:
            np.matmul(g_ext, xq[:, :, ph, off:off + length].transpose(0, 2, 1), out=gw_n)
            gw[:, :, i, j] = gw_n.sum(axis=0)
            np.matmul(wt[i, j].T, g_pad[:, :, far - off:far - off + hq * wq], out=gq_tap)
            gq[ph] += gq_tap
        gq = gq.reshape(s, s, n, cin, hq, wq)
        gx = np.empty(x.data.shape, dtype=dtype)
        for a, ra, ha, na in rows:
            for b, qb, wb, nb in cols:
                gx[:, :, ha::s, wb::s] = gq[a, b, :, :, ra:ra + na, qb:qb + nb]
        if len(parents) == 3:
            return gx, gw, g.sum(axis=(0, 2, 3)).astype(dtype, copy=False)
        return gx, gw

    return _node(out, tuple(parents), bw)


def maxpool2d(x):
    """3x3, stride-1 sliding-window max of x [N,C,H,W], forward only: the
    window of decode's peak picking. Out-of-image positions act as -inf, so
    padding never wins a window. The max is exact, so taking it along rows
    first changes no value. The result is detached from the graph.
    """
    xd = x.data if isinstance(x, Tensor) else _as_array(x)
    if xd.ndim != 4:
        raise ShapeError("maxpool2d expects [N,C,H,W]")
    h, w = xd.shape[2:]
    xp = np.full(xd.shape[:2] + (h + 2, w + 2), -np.inf, dtype=xd.dtype)
    xp[:, :, 1:-1, 1:-1] = xd
    rows = np.maximum(np.maximum(xp[..., :-2], xp[..., 1:-1]), xp[..., 2:])
    return Tensor(np.maximum(np.maximum(rows[:, :, :-2], rows[:, :, 1:-1]), rows[:, :, 2:]))


def _eval_norm(x, gamma, beta, running_mean, running_var, out=None):
    """Eval batch norm of x (channels on axis 1) before its ReLU, as
    x * scale + shift with scale = gamma / sqrt(running_var + _BN_EPS), into
    `out` (a fresh map by default; it may be x, but not for [M, C] rows):
    returns the map and 1 / sqrt(running_var + _BN_EPS).

    [M, C] rows run as [M / 32, 32 * C] blocks against scale and shift tiled
    32 times, then the remaining rows: the same products and sums, in long
    contiguous loops instead of M loops of C."""
    inv_std = 1.0 / np.sqrt(running_var + _BN_EPS)
    scale = gamma * inv_std
    shift = beta - running_mean * scale
    if x.ndim == 2:
        c = x.shape[1]
        lanes = np.arange(_ROW_BLOCK * c) % c       # the channel of each block column
        scale_rows, shift_rows = scale[lanes], shift[lanes]
        out = np.empty(x.shape, np.result_type(x, scale))
        cut = (x.shape[0] - x.shape[0] % _ROW_BLOCK) * c
        flat_x, flat = x.reshape(-1), out.reshape(-1)
        blocks = (-1, _ROW_BLOCK * c)
        for part_x, part in ((flat_x[:cut].reshape(blocks), flat[:cut].reshape(blocks)),
                             (flat_x[cut:], flat[cut:])):
            width = part.shape[-1]
            np.multiply(part_x, scale_rows[:width], out=part)
            part += shift_rows[:width]
        return out, inv_std
    shape = (1, -1) + (1,) * (x.ndim - 2)
    out = np.multiply(x, scale.reshape(shape), out=out)
    out += shift.reshape(shape)
    return out, inv_std


def batchnorm(x, gamma, beta, running_mean, running_var, training):
    """Normalize over all axes except channel axis 1, then apply ReLU in
    place (every batch norm in the model feeds one): backward first masks g
    by ``out > 0``, so the pair keeps one map (in-place activated BN, Rota
    Bulo et al., arXiv 1712.02616).

    Train mode uses batch statistics (biased variance) and moves the running
    statistics, two non-differentiated tensors, toward them by
    `update_running_stats` (inside `deferred_stats`, records the move
    instead); eval mode normalizes by the running statistics, as
    x * scale + shift. One backward serves both: it recomputes the normalized
    input from x rather than saving it, and gx = gamma * inv_std * g, less
    sum(g) / m + x_hat * sum(g * x_hat) / m in train mode.

    Train mode takes the variance of one centred copy (two-pass, so float32
    does not cancel) and scales that copy into the output.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"batchnorm expects per-channel parameters of shape ({c},)")
    axes = (0,) + tuple(range(2, x.data.ndim))
    shape = (1, c) + (1,) * (x.data.ndim - 2)
    m = x.data.size // c

    if training:
        mu = x.data.mean(axis=axes)
        out = x.data - mu.reshape(shape)
        var = np.mean(out * out, axis=axes)     # two-pass: no float32 cancellation
        if _grad_mode.stats is None:
            update_running_stats(running_mean, running_var, mu, var)
        else:
            _grad_mode.stats.append((running_mean, running_var, mu, var))
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        out = out.astype(np.result_type(out, gamma.data, beta.data), copy=False)
        out *= (gamma.data * inv_std).reshape(shape)
        out += beta.data.reshape(shape)
    else:
        mu = running_mean.data
        out, inv_std = _eval_norm(x.data, gamma.data, beta.data, mu, running_var.data)
    np.maximum(out, 0, out=out)

    def bw(g):
        g = g * (out > 0)
        xhat = x.data - mu.reshape(shape)
        xhat *= inv_std.reshape(shape)
        gb = g.sum(axis=axes)
        gx = g * xhat
        gg = gx.sum(axis=axes)
        if training:    # the batch statistics move with x too
            xhat *= (gg / m).reshape(shape)
            np.subtract(g, xhat, out=gx)
            gx -= (gb / m).reshape(shape)
        else:
            gx = g
        gx *= (gamma.data * inv_std).reshape(shape)
        return gx, gg, gb

    return _node(out, (x, gamma, beta), bw)


# --------------------------------------------------------------------------
# segment / scatter / sampling ops
# --------------------------------------------------------------------------

def _segment_bounds(starts, total):
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.append(starts[1:], total)
    if np.any(ends <= starts):
        raise ShapeError("segment ops require non-empty contiguous segments")
    return starts, ends


def segment_max(x, starts):
    """Per-segment max over contiguous row segments of x [M,C].

    The forward runs in rank-major rounds. The segments are ordered by
    descending length (stably), so the ones holding an r-th row form a
    prefix of that order, widths[r] long. One take gathers the rows
    rank-major, and round r is one np.maximum of the prefix's r-th rows into
    its running maxima: each segment folds its rows in order, as
    np.maximum.reduceat does, in one contiguous pass per rank instead of one
    short loop per segment. There is one round per row of the longest
    segment. The maxima equal reduceat's; where +0.0 ties -0.0 the sign may
    differ, as it does between numpy's own reduce loops.

    Gradient routes to the first maximal row of each segment (per channel).
    That row index is built in backward, so inference without grads skips it.
    """
    x = _wrap(x)
    m, c = x.data.shape
    starts, ends = _segment_bounds(starts, m)
    lengths = ends - starts
    by_length = np.argsort(-lengths, kind="stable")
    widths = len(starts) - np.cumsum(np.bincount(lengths))[:-1]   # segments longer than r
    offsets = np.cumsum(widths) - widths
    rank = np.repeat(np.arange(widths.size), widths)      # of each row, rank-major
    segment = by_length[np.arange(m) - offsets[rank]]
    rows = x.data.take(starts[segment] + rank, axis=0)
    acc = rows[:len(starts)]
    for lo, width in zip(offsets.tolist()[1:], widths.tolist()[1:]):
        prefix = acc[:width]
        np.maximum(prefix, rows[lo:lo + width], out=prefix)
    position = np.empty_like(by_length)     # of each segment in by_length
    position[by_length] = np.arange(len(starts))
    data = acc.take(position, axis=0)

    def bw(g):
        seg_ids = np.repeat(np.arange(len(starts)), ends - starts)
        is_max = x.data == data[seg_ids]
        order = np.where(is_max, np.arange(m)[:, None], m)
        first_idx = np.minimum.reduceat(order, starts, axis=0)
        gx = np.zeros_like(x.data)
        gx[first_idx, np.arange(c)[None, :]] += g
        return (gx,)

    return _node(data, (x,), bw)


def segment_mean(x, starts):
    """Per-segment mean over contiguous row segments of x [M,C]."""
    x = _wrap(x)
    m, _ = x.data.shape
    starts, ends = _segment_bounds(starts, m)
    counts = (ends - starts).astype(x.data.dtype)
    data = np.add.reduceat(x.data, starts, axis=0) / counts[:, None]
    seg_ids = np.repeat(np.arange(len(starts)), ends - starts)

    def bw(g):
        return ((g / counts[:, None])[seg_ids],)

    return _node(data, (x,), bw)


def scatter_to_grid(features, cells, dims):
    """Scatter per-cell features [P,C] to a dense [1,C,H,W] grid.

    `cells` is [P] flat indices iy*W + ix in strictly ascending order;
    `dims` is (W, H). Untouched cells are zero.
    """
    features = _wrap(features)
    cells = np.asarray(cells, dtype=np.int64)
    w, h = int(dims[0]), int(dims[1])
    p, c = features.data.shape
    if cells.shape != (p,):
        raise ShapeError(f"cells shape {cells.shape} does not match {p} feature rows")
    if p and (cells[0] < 0 or cells[-1] >= w * h or (cells[1:] <= cells[:-1]).any()):
        raise IndexError("scatter cells must be strictly ascending and inside the grid")
    out = np.zeros((1, c, h, w), dtype=features.data.dtype)
    out.reshape(c, h * w)[:, cells] = features.data.T

    def bw(g):
        return (g.reshape(c, h * w)[:, cells].T,)

    return _node(out, (features,), bw)


def gather_pixels(x, ys, xs, k=1):
    """Rows [M, C*k*k] of the k x k windows of x [1,C,h,w] centred at (ys, xs),
    k odd: channel-major, then taps row-major, as in a conv weight reshaped to
    [F, C*k*k]. Taps outside the map read zero; k = 1 gives each pixel's
    vector. Duplicate pixels are allowed; backward accumulates."""
    x = _wrap(x)
    ys = np.asarray(ys, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.int64)
    _, c, h, w = x.data.shape
    m, r = ys.size, k // 2
    ty = ys[:, None] + (np.arange(k * k) // k - r)
    tx = xs[:, None] + (np.arange(k * k) % k - r)
    inside = (ty >= 0) & (ty < h) & (tx >= 0) & (tx < w)
    flat = np.where(inside, ty * w + tx, 0)
    data = x.data[0].reshape(c, h * w)[:, flat]
    data[:, ~inside] = 0
    data = data.transpose(1, 0, 2).reshape(m, c * k * k)

    def bw(g):
        gx = np.zeros_like(x.data)
        g = g.reshape(m, c, k * k).transpose(1, 0, 2)
        np.add.at(gx[0].reshape(c, h * w), (slice(None), flat[inside]), g[:, inside])
        return (gx,)

    return _node(data, (x,), bw)


def conv_rows(rows, weight, bias=None):
    """rows [M, C*kh*kw] @ weight.reshape(F, -1).T (+ bias) -> [M, F], the one
    row GEMM: a conv weight [F,C,kh,kw] at gather_pixels' windows, a 1x1 one
    at pixel rows, or a projection [F, C] of feature rows."""
    rows, weight = _wrap(rows), _wrap(weight)
    f = weight.data.shape[0]
    if rows.data.ndim != 2 or rows.data.shape[1] != weight.data[0].size:
        raise ShapeError(f"conv_rows: rows {rows.data.shape} do not fit {weight.data.shape}")
    parents = (rows, weight) if bias is None else (rows, weight, _wrap(bias))
    data = rows.data @ weight.data.reshape(f, -1).T
    if bias is not None:
        data = data + parents[2].data
    dtype = data.dtype

    def bw(g):
        g = g.astype(dtype, copy=False)
        grads = g @ weight.data.reshape(f, -1), (g.T @ rows.data).reshape(weight.data.shape)
        return grads if bias is None else grads + (g.sum(axis=0),)

    return _node(data, parents, bw)


_SNAP_TOL = 1e-7
_CORNER_STEP = np.array([0, 1])[:, None, None]


def bilinear_sample(feature_map, sample_grid):
    """Sample feature_map [N,C,H,W] at one sample_grid [Hg,Wg,2] of pixel coords.

    Grid entries are (x, y) source coordinates in pixel units; out-of-map
    samples read as zero. Coordinates within 1e-7 of an integer are snapped
    so integer translations degenerate to exact index shifts. Differentiable
    in the map only; the grid is treated as a constant.

    The four corners, (dy, dx) = (0, 0), (0, 1), (1, 0), (1, 1), are one
    table: flat pixel indices [4, Hg*Wg], clipped into the map, and weights,
    zero for a corner outside it. The forward gathers all four with one take
    from a channels-last copy of the map, then weights each corner into a
    channel-first sum that starts at +0.0 and adds the corners in table
    order, so a -0.0 product comes out +0.0. Backward is one segment sum over
    the same table: the weighted gradient rows are stably sorted by flat
    target pixel and summed with ``np.add.reduceat``.
    """
    feature_map = _wrap(feature_map)
    grid = np.asarray(sample_grid, dtype=np.float64)
    n, c, h, w = feature_map.data.shape
    if grid.ndim != 3 or grid.shape[2] != 2:
        raise ShapeError("sample_grid must be [Hg,Wg,2]")
    dtype = feature_map.data.dtype
    g = np.moveaxis(grid, 2, 0).copy()          # [2 (x, y), Hg, Wg]
    snapped = np.round(g)
    np.copyto(g, snapped, where=np.abs(g - snapped) < _SNAP_TOL)
    lo = np.floor(g)
    lo += 0.0       # floor(-0.0) is -0.0, and g - lo must keep g's sign there
    frac = np.empty((2, 2) + g.shape[1:])       # [axis, step, Hg, Wg]
    np.subtract(g, lo, out=frac[:, 1])
    np.subtract(1, frac[:, 1], out=frac[:, 0])
    xx, yy = lo.astype(np.int64)[:, None] + _CORNER_STEP
    # a negative index reads as a huge unsigned one, so one compare per axis
    weight = frac[1][:, None] * frac[0]
    weight *= (yy.view(np.uint64) < h)[:, None] & (xx.view(np.uint64) < w)
    weight = weight.astype(dtype, copy=False).reshape(4, -1)
    flat = (np.clip(yy, 0, h - 1)[:, None] * w + np.clip(xx, 0, w - 1)).reshape(4, -1)

    channels_last = np.ascontiguousarray(
        feature_map.data.reshape(n, c, h * w).transpose(0, 2, 1))
    picked = channels_last.take(flat, axis=1).transpose(0, 3, 1, 2)   # [N, C, 4, Hg*Wg]
    out = np.multiply(picked[:, :, 0], weight[0])
    out += 0.0
    term = np.empty_like(out)
    for k in range(1, 4):
        out += np.multiply(picked[:, :, k], weight[k], out=term)

    def bw(g):
        rows = (g.reshape(n, c, 1, -1) * weight).reshape(n, c, -1).astype(dtype, copy=False)
        order = np.argsort(flat, axis=None, kind="stable")
        target = flat.ravel()[order]
        starts = np.flatnonzero(np.r_[True, target[1:] != target[:-1]])
        gm = np.zeros((n, c, h * w), dtype=dtype)
        gm[:, :, target[starts]] = np.add.reduceat(rows[:, :, order], starts, axis=2)
        return (gm.reshape(n, c, h, w),)

    return _node(out.reshape((n, c) + grid.shape[:2]), (feature_map,), bw)


def resample_nearest(x, out_hw):
    """Nearest-neighbor downsample of x [N,C,H,W] by an integer factor.

    Keeps the top-left pixel of each block. Upsampling and non-integer ratios
    are a shape error. At the identity shape it returns x itself.
    """
    x = _wrap(x)
    h, w = x.data.shape[2:]
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if oh == h and ow == w:
        return x
    if not (0 < oh <= h and 0 < ow <= w) or h % oh or w % ow:
        raise ShapeError(f"resample {h}x{w} -> {oh}x{ow} is not an integer "
                         f"downsampling factor")
    fy, fx = h // oh, w // ow
    data = x.data[:, :, ::fy, ::fx].copy()

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[:, :, ::fy, ::fx] = g
        return (gx,)

    return _node(data, (x,), bw)


# --------------------------------------------------------------------------
# backward
# --------------------------------------------------------------------------

def _freed(g):
    raise StateError("backward through a graph that an earlier backward "
                     "already freed")


def backward(loss):
    """Reverse-accumulate gradients of a scalar loss onto requires_grad leaves.

    Frees the graph as it walks it: once a node's backward function has run
    (or the node got no gradient), its parents and saved arrays are dropped,
    so one backward per graph. A later backward that reaches a freed node
    raises StateError. Repeated calls on fresh graphs accumulate into `.grad`.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p._needs_grad():
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if g is not None and node.requires_grad:
            accumulate_grad(node, g)
        if node._backward_fn is None:
            continue
        if g is not None:
            parent_grads = node._backward_fn(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p._needs_grad():
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg
        node._parents = ()
        node._backward_fn = _freed
