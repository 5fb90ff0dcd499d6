"""Reverse-mode autodiff on numpy arrays, covering the pipeline's operator set.

Dense elementwise math, whole-tensor sum and mean, matmul, 2D convolution /
batch norm / max pooling, the sparse scatter/gather ops used to build
pseudo-images, and bilinear map sampling. Each op records its parents and a
backward function; `backward` walks the graph once in reverse topological
order and accumulates gradients on every tensor created with
``requires_grad=True``.

Memory contract: an op's backward function saves only what the graph already
holds (its parents and its own output, plus per-channel or index arrays) and
recomputes anything map-sized from them. So the inputs of an op must not be
mutated between its forward and the backward through it. `backward` frees the
graph as it walks it, like PyTorch's ``retain_graph=False``: one backward per
graph, and a second one through a freed node raises StateError.

Dtypes: ops take float32 or float64 arrays (anything else is wrapped as
float64), and a result has the dtype ``np.result_type`` gives the operands it
is computed from; `bilinear_sample`'s follows the map alone, since its grid
is coordinates. So float32 data stays float32 only while every operand it
meets is float32 or a Python scalar: a float64 array upcasts the result, and
so does a NumPy float64 scalar or 0-d array under NumPy 2's promotion rules
(NumPy 1.x keeps float32 for those two).

Forward results are plain numpy and bit-deterministic for fixed inputs.
"""
from __future__ import annotations

import contextlib
import math
import numbers
import threading

import numpy as np

from .errors import ShapeError, StateError

_FLOAT_DTYPES = (np.float32, np.float64)


class _GradMode(threading.local):
    """Whether ops record the graph, per thread: one thread's no_grad block
    must not switch recording off (or on) under another thread."""

    enabled = True


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
    its owner resets it (e.g. ``AdamW.zero_grad``). Tensors produced by ops
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

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

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


def neg(a):
    a = _wrap(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def pow(a, exponent):
    a = _wrap(a)
    p = float(exponent)
    data = a.data ** p

    def bw(g):
        return (g * p * a.data ** (p - 1.0),)

    return _node(data, (a,), bw)


def log(a):
    """Natural log; the caller guarantees strictly positive input (clip first)."""
    a = _wrap(a)
    data = np.log(a.data)

    def bw(g):
        return (g / a.data,)

    return _node(data, (a,), bw)


def abs(a):
    a = _wrap(a)
    data = np.abs(a.data)

    def bw(g):
        return (g * np.sign(a.data),)

    return _node(data, (a,), bw)


def clip(a, lo, hi):
    """Clamp values; gradient passes only where the input was inside [lo, hi]."""
    a = _wrap(a)
    data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)

    def bw(g):
        return (g * mask,)

    return _node(data, (a,), bw)


def relu(a):
    a = _wrap(a)
    data = np.maximum(a.data, 0)

    def bw(g):
        return (g * (a.data > 0),)

    return _node(data, (a,), bw)


def sigmoid(a):
    a = _wrap(a)
    # numerically stable two-sided form
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                    np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))))

    def bw(g):
        return (g * data * (1.0 - data),)

    return _node(data, (a,), bw)


def sum(a):
    """Sum of all elements, as a 0-d tensor."""
    a = _wrap(a)
    return _node(a.data.sum(), (a,),
                 lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def mean(a):
    """Mean of all elements, as a 0-d tensor."""
    a = _wrap(a)
    return mul(sum(a), 1.0 / a.data.size)


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


def index_rows(a, idx):
    """Gather rows of a 2D tensor; duplicate indices accumulate in backward."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    data = a.data[idx]

    def bw(g):
        gx = np.zeros_like(a.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _node(data, (a,), bw)


# --------------------------------------------------------------------------
# matmul
# --------------------------------------------------------------------------

def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects 2D operands")
    data = a.data @ b.data

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    return _node(data, (a, b), bw)


# --------------------------------------------------------------------------
# conv / pool / norm
# --------------------------------------------------------------------------

def _conv_out_dim(size, k, stride, pad):
    return (size + 2 * pad - k) // stride + 1


def _check_window(op, shape, kh, kw, stride, padding):
    """Validate a sliding window over [N,C,H,W]; returns (oh, ow)."""
    if not isinstance(stride, numbers.Integral) or stride < 1:
        raise ShapeError(f"{op}: stride must be a positive integer, got {stride!r}")
    if not isinstance(padding, numbers.Integral) or padding < 0:
        raise ShapeError(f"{op}: padding must be a nonnegative integer, got {padding!r}")
    h, w = shape[2:]
    oh = _conv_out_dim(h, kh, stride, padding)
    ow = _conv_out_dim(w, kw, stride, padding)
    if oh < 1 or ow < 1:
        raise ShapeError(f"{op}: {kh}x{kw} kernel does not fit the {h}x{w} input "
                         f"with padding {padding}")
    return oh, ow


_scratch = threading.local()


def _buffer(role, shape, dtype):
    """An uninitialised view of this thread's scratch buffer for `role`,
    which grows to the largest shape asked for and is reused.

    Nothing may keep it past the call that asked for it: ops copy their
    results out of it, and backward functions rebuild what they need from
    the graph rather than saving it."""
    size = math.prod(shape)
    buf = getattr(_scratch, role, None)
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_scratch, role, buf)
    return buf[:size].reshape(shape)


def _phase_runs(size, pad, s):
    """For each phase a of a zero-padded axis split with stride s: (a, first
    phase index, first input index, count) of the input pixels it holds."""
    runs = []
    for a in range(s):
        first = max(0, -((a - pad) // s))
        start = a + s * first - pad
        runs.append((a, first, start, len(range(start, size, s))))
    return runs


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """Cross-correlation of x [N,C,H,W] with weight [F,C,kh,kw].

    `padding` is symmetric zero padding in pixels; the output is
    H' = (H + 2 padding - kh) // stride + 1 (likewise W').

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
    oh, ow = _check_window("conv2d", x.data.shape, kh, kw, stride, padding)
    parents = [x, weight]
    if bias is not None:
        bias = _wrap(bias)
        if bias.data.shape != (f,):
            raise ShapeError("conv2d bias must have shape [F]")
        parents.append(bias)
    s, pad = stride, padding
    n, _, h, w = x.data.shape
    dtype = np.result_type(x.data, weight.data)
    # one spare phase row: the last taps' slices run past the final row
    hq, wq = -(-(h + 2 * pad) // s) + 1, -(-(w + 2 * pad) // s)
    length = oh * wq
    rows, cols = _phase_runs(h, pad, s), _phase_runs(w, pad, s)

    def phases():
        xq = _buffer("phases", (n, cin, s, s, hq, wq), dtype)
        for a, ra, ha, na in rows:
            for b, qb, wb, nb in cols:
                phase = xq[:, :, a, b]
                phase[:, :, :ra] = phase[:, :, ra + na:] = 0
                phase[:, :, ra:ra + na, :qb] = phase[:, :, ra:ra + na, qb + nb:] = 0
                phase[:, :, ra:ra + na, qb:qb + nb] = x.data[:, :, ha::s, wb::s]
        return xq.reshape(n, cin, s * s, hq * wq)

    xq = phases()
    taps = [(i, j, (i % s) * s + j % s, (i // s) * wq + j // s)
            for i in range(kh) for j in range(kw)]

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
    out = acc.reshape(n, f, oh, wq)[..., :ow]
    out = out + bias.data.reshape(1, f, 1, 1) if bias is not None else out.copy()

    def bw(g):
        # g_pad[far + q] is g at output position q, zero in the dropped
        # columns, so phase position p collects wt^T @ g_pad[far + p - off]
        xq, wt = phases(), taps_weight()
        far = taps[-1][3]
        g_pad = np.zeros((n, f, far + hq * wq), dtype=dtype)
        g_ext = g_pad[:, :, far:far + length]
        g_ext.reshape(n, f, oh, wq)[..., :ow] = g
        gw = np.empty((f, cin, kh, kw), dtype=dtype)
        gw_n = np.empty((n, f, cin), dtype=dtype)
        gq = np.zeros((s * s, n, cin, hq * wq), dtype=dtype)
        gq_tap = np.empty((n, cin, hq * wq), dtype=dtype)
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


def maxpool2d(x, kernel, stride=1, padding=0):
    """Sliding-window max, forward only (used for decode-time peak picking).

    Out-of-image positions act as -inf, so zero padding never wins a window.
    The result is detached from the graph.
    """
    xd = x.data if isinstance(x, Tensor) else _as_array(x)
    if xd.ndim != 4:
        raise ShapeError("maxpool2d expects [N,C,H,W]")
    if not isinstance(kernel, numbers.Integral) or kernel < 1:
        raise ShapeError(f"maxpool2d: kernel must be a positive integer, got {kernel!r}")
    oh, ow = _check_window("maxpool2d", xd.shape, kernel, kernel, stride, padding)
    n, c, h, w = xd.shape
    xp = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf, dtype=xd.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = xd
    out = np.full((n, c, oh, ow), -np.inf, dtype=xd.dtype)
    for i in range(kernel):
        for j in range(kernel):
            np.maximum(out, xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride], out=out)
    return Tensor(out)


def batchnorm(x, gamma, beta, running_mean, running_var, training, eps=1e-5,
              momentum=0.1):
    """Normalize over all axes except channel axis 1.

    Train mode uses batch statistics (biased variance) and moves the running
    statistics, two non-differentiated tensors, toward them by rebinding their
    ``data``; eval mode normalizes by the running statistics. Both backward
    passes recompute the normalized input from x rather than saving it.
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
        var = x.data.var(axis=axes)
        running_mean.data = (1.0 - momentum) * running_mean.data + momentum * mu
        running_var.data = (1.0 - momentum) * running_var.data + momentum * var
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mu.reshape(shape)) * inv_std.reshape(shape)
        out = gamma.data.reshape(shape) * xhat + beta.data.reshape(shape)

        def bw(g):
            xhat = (x.data - mu.reshape(shape)) * inv_std.reshape(shape)
            gg = (g * xhat).sum(axis=axes)
            gb = g.sum(axis=axes)
            gxhat = g * gamma.data.reshape(shape)
            gx = (gxhat - gxhat.mean(axis=axes).reshape(shape)
                  - xhat * (gxhat * xhat).mean(axis=axes).reshape(shape))
            gx *= inv_std.reshape(shape)
            return gx, gg, gb

        return _node(out, (x, gamma, beta), bw)

    mu, inv_std = running_mean.data, 1.0 / np.sqrt(running_var.data + eps)
    scale = gamma.data * inv_std
    out = x.data * scale.reshape(shape)
    out += (beta.data - mu * scale).reshape(shape)

    def bw_eval(g):
        xhat = (x.data - mu.reshape(shape)) * inv_std.reshape(shape)
        gg = (g * xhat).sum(axis=axes)
        gb = g.sum(axis=axes)
        gx = g * (gamma.data * inv_std).reshape(shape)
        return gx, gg, gb

    return _node(out, (x, gamma, beta), bw_eval)


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

    Gradient routes to the first maximal row of each segment (per channel).
    """
    x = _wrap(x)
    m, c = x.data.shape
    starts, ends = _segment_bounds(starts, m)
    data = np.maximum.reduceat(x.data, starts, axis=0)
    seg_ids = np.repeat(np.arange(len(starts)), ends - starts)
    is_max = x.data == data[seg_ids]
    order = np.where(is_max, np.arange(m)[:, None], m)
    first_idx = np.minimum.reduceat(order, starts, axis=0)

    def bw(g):
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


def scatter_to_grid(features, coords, dims):
    """Scatter per-cell features [P,C] to a dense [1,C,H,W] grid.

    `coords` is [P,2] integer (ix, iy) with unique in-grid entries;
    `dims` is (W, H). Untouched cells are zero.
    """
    features = _wrap(features)
    coords = np.asarray(coords, dtype=np.int64)
    w, h = int(dims[0]), int(dims[1])
    p, c = features.data.shape
    if coords.shape != (p, 2):
        raise ShapeError(f"coords shape {coords.shape} does not match {p} feature rows")
    if p:
        ix, iy = coords[:, 0], coords[:, 1]
        if ix.min() < 0 or iy.min() < 0 or ix.max() >= w or iy.max() >= h:
            raise IndexError("scatter coords outside the grid")
        flat = iy * w + ix
        if np.unique(flat).size != p:
            raise IndexError("scatter coords must be unique")
    out = np.zeros((1, c, h, w), dtype=features.data.dtype)
    if p:
        out[0, :, coords[:, 1], coords[:, 0]] = features.data

    def bw(g):
        if not p:
            return (np.zeros_like(features.data),)
        return (g[0, :, coords[:, 1], coords[:, 0]],)

    return _node(out, (features,), bw)


def gather_pixels(x, ys, xs):
    """Gather per-pixel vectors from x [1,C,h,w] at (ys, xs) -> [M,C].

    Duplicate pixels are allowed; backward accumulates.
    """
    x = _wrap(x)
    ys = np.asarray(ys, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.int64)
    data = x.data[0, :, ys, xs]

    def bw(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx[0].transpose(1, 2, 0), (ys, xs), g)
        return (gx,)

    return _node(data, (x,), bw)


_SNAP_TOL = 1e-7


def bilinear_sample(feature_map, sample_grid):
    """Sample feature_map [N,C,H,W] at sample_grid [N,Hg,Wg,2] pixel coords.

    Grid entries are (x, y) source coordinates in pixel units; out-of-map
    samples read as zero. Coordinates within 1e-7 of an integer are snapped
    so integer translations degenerate to exact index shifts. Differentiable
    in the map only; the grid is treated as a constant.
    """
    feature_map = _wrap(feature_map)
    grid = sample_grid.data if isinstance(sample_grid, Tensor) else np.asarray(sample_grid, dtype=np.float64)
    n, c, h, w = feature_map.data.shape
    if grid.ndim != 4 or grid.shape[0] != n or grid.shape[3] != 2:
        raise ShapeError("sample_grid must be [N,Hg,Wg,2]")
    gx = grid[..., 0]
    gy = grid[..., 1]
    gx = np.where(np.abs(gx - np.round(gx)) < _SNAP_TOL, np.round(gx), gx)
    gy = np.where(np.abs(gy - np.round(gy)) < _SNAP_TOL, np.round(gy), gy)
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    wx = gx - x0
    wy = gy - y0
    dtype = feature_map.data.dtype
    corners = []
    for dy, dx, cw in ((0, 0, (1 - wy) * (1 - wx)), (0, 1, (1 - wy) * wx),
                       (1, 0, wy * (1 - wx)), (1, 1, wy * wx)):
        yy = y0 + dy
        xx = x0 + dx
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        corners.append((np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1),
                        (cw * valid).astype(dtype, copy=False)))

    out = np.zeros((n, c) + grid.shape[1:3], dtype=dtype)
    for yy, xx, cw in corners:
        for b in range(n):
            out[b] += feature_map.data[b][:, yy[b], xx[b]] * cw[b][None]

    def bw(g):
        gm = np.zeros_like(feature_map.data)
        for yy, xx, cw in corners:
            for b in range(n):
                np.add.at(gm[b].transpose(1, 2, 0), (yy[b], xx[b]), (g[b] * cw[b][None]).transpose(1, 2, 0))
        return (gm,)

    return _node(out, (feature_map,), bw)


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
            node.grad = g.copy() if node.grad is None else node.grad + g
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
