"""Parameter-holding layers on top of the autodiff ops.

A Module tracks named parameters (Tensors with requires_grad) and named
buffers (Tensors outside the gradient graph: the batch-norm running
statistics), and composes hierarchically. `named_state` walks both as one
"param.<path>" / "buffer.<path>" table, which the dtype cast, `state_dict`,
`load_state_dict` and checkpoints all use. Initialization draws from an
explicit numpy Generator so model construction is a pure function of the seed.
"""
from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import ShapeError


class Module:
    def __init__(self):
        self._state = {"param": {}, "buffer": {}}
        self._children = {}
        self.training = True

    def add_param(self, name, tensor):
        tensor.requires_grad = True
        self._state["param"][name] = tensor
        return tensor

    def add_buffer(self, name, tensor):
        self._state["buffer"][name] = tensor
        return tensor

    def add_child(self, name, module):
        self._children[name] = module
        return module

    def _named(self, kind, prefix):
        for name, t in self._state[kind].items():
            yield prefix + name, t
        for cname, child in self._children.items():
            yield from child._named(kind, prefix + cname + ".")

    def named_parameters(self):
        return self._named("param", "")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_state(self):
        """(key, tensor) for every parameter, then every buffer."""
        for kind in ("param", "buffer"):
            yield from self._named(kind, kind + ".")

    def param_count(self):
        return sum(p.size for p in self.parameters())

    def train(self, mode=True):
        self.training = mode
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def state_dict(self):
        return {key: t.data.copy() for key, t in self.named_state()}

    def load_state_dict(self, state):
        """Every array loads under one rule: its key is in `named_state`, is
        present, has the tensor's shape, and is cast to the tensor's dtype."""
        table = dict(self.named_state())
        extra = [key for key in state if key not in table]
        if extra:
            raise ShapeError(f"arrays this model does not have: {', '.join(extra)}")
        for key, t in table.items():
            if key not in state:
                raise ShapeError(f"missing {key} in state")
            val = np.asarray(state[key])
            if val.shape != t.data.shape:
                raise ShapeError(f"{key}: shape {val.shape} != {t.data.shape}")
            t.data = val.astype(t.data.dtype)


class Linear(Module):
    """x [M, in] @ W [in, out] + b, Kaiming-normal init for ReLU nets."""

    def __init__(self, in_features, out_features, rng):
        super().__init__()
        std = math.sqrt(2.0 / in_features)
        self.weight = self.add_param(
            "weight", ad.Tensor(rng.normal(0.0, std, size=(in_features, out_features))))
        self.bias = self.add_param("bias", ad.Tensor(np.zeros(out_features)))

    def __call__(self, x):
        return ad.add(ad.matmul(x, self.weight), self.bias)


class Conv2d(Module):
    """Odd-kernel conv padded by kernel // 2, so stride 1 keeps the map size."""

    def __init__(self, in_channels, out_channels, kernel, rng, stride=1,
                 bias=True):
        super().__init__()
        if kernel % 2 == 0:
            raise ShapeError("conv kernels must be odd")
        fan_in = in_channels * kernel * kernel
        std = math.sqrt(2.0 / fan_in)
        self.weight = self.add_param(
            "weight",
            ad.Tensor(rng.normal(0.0, std, size=(out_channels, in_channels,
                                                 kernel, kernel))))
        self.bias = None
        if bias:
            self.bias = self.add_param("bias", ad.Tensor(np.zeros(out_channels)))
        self.stride = stride
        self.padding = kernel // 2

    def __call__(self, x):
        return ad.conv2d(x, self.weight, self.bias, stride=self.stride,
                         padding=self.padding)


class BatchNorm(Module):
    """Channel-axis-1 batch norm for [M, C] or [N, C, H, W] inputs."""

    def __init__(self, channels, eps=1e-5, momentum=0.1):
        super().__init__()
        self.gamma = self.add_param("gamma", ad.Tensor(np.ones(channels)))
        self.beta = self.add_param("beta", ad.Tensor(np.zeros(channels)))
        self.running_mean = self.add_buffer("running_mean",
                                            ad.Tensor(np.zeros(channels)))
        self.running_var = self.add_buffer("running_var",
                                           ad.Tensor(np.ones(channels)))
        self.eps = eps
        self.momentum = momentum

    def __call__(self, x):
        return ad.batchnorm(x, self.gamma, self.beta, self.running_mean,
                            self.running_var, training=self.training,
                            eps=self.eps, momentum=self.momentum)


class ConvBNReLU(Module):
    """conv -> batchnorm -> relu, the standard block used throughout."""

    def __init__(self, in_channels, out_channels, kernel, rng, stride=1):
        super().__init__()
        self.conv = self.add_child(
            "conv", Conv2d(in_channels, out_channels, kernel, rng,
                           stride=stride, bias=False))
        self.bn = self.add_child("bn", BatchNorm(out_channels))

    def __call__(self, x):
        return ad.relu(self.bn(self.conv(x)))
