"""Parameter-holding layers on top of the autodiff ops.

A Module tracks named parameters (Tensors with requires_grad) and named
buffers (plain arrays such as batch-norm running statistics), and composes
hierarchically. Initialization draws from an explicit numpy Generator so
model construction is a pure function of the seed.
"""
from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import ShapeError


class Module:
    def __init__(self):
        self._params = {}
        self._buffers = {}
        self._children = {}
        self.training = True

    def add_param(self, name, tensor):
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def add_buffer(self, name, getter, setter):
        """Register a mutable array exposed through (getter, setter) closures."""
        self._buffers[name] = (getter, setter)

    def add_child(self, name, module):
        self._children[name] = module
        return module

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield prefix + name, p
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix=""):
        for name, (getter, setter) in self._buffers.items():
            yield prefix + name, getter, setter
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix + cname + ".")

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
        state = {"param." + n: p.data.copy() for n, p in self.named_parameters()}
        for n, getter, _ in self.named_buffers():
            state["buffer." + n] = getter().copy()
        return state

    def load_state_dict(self, state):
        for n, p in self.named_parameters():
            key = "param." + n
            if key not in state:
                raise ShapeError(f"missing parameter {n} in state")
            val = np.asarray(state[key])
            if val.shape != p.data.shape:
                raise ShapeError(f"parameter {n}: shape {val.shape} != {p.data.shape}")
            p.data = val.astype(p.data.dtype)
        for n, getter, setter in self.named_buffers():
            key = "buffer." + n
            if key not in state:
                raise ShapeError(f"missing buffer {n} in state")
            setter(np.asarray(state[key], dtype=getter().dtype))


class Linear(Module):
    """x [M, in] @ W [in, out] + b, Kaiming-normal init for ReLU nets."""

    def __init__(self, in_features, out_features, rng, bias=True):
        super().__init__()
        std = math.sqrt(2.0 / in_features)
        self.weight = self.add_param(
            "weight", ad.Tensor(rng.normal(0.0, std, size=(in_features, out_features))))
        self.bias = None
        if bias:
            self.bias = self.add_param("bias", ad.Tensor(np.zeros(out_features)))

    def __call__(self, x):
        return ad.linear(x, self.weight, self.bias)


class Conv2d(Module):
    def __init__(self, in_channels, out_channels, kernel, rng, stride=1,
                 padding="same", bias=True):
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
        self.padding = padding

    def __call__(self, x):
        return ad.conv2d(x, self.weight, self.bias, stride=self.stride,
                         padding=self.padding)


class BatchNorm(Module):
    """Channel-axis-1 batch norm for [M, C] or [N, C, H, W] inputs."""

    def __init__(self, channels, eps=1e-5, momentum=0.1):
        super().__init__()
        self.gamma = self.add_param("gamma", ad.Tensor(np.ones(channels)))
        self.beta = self.add_param("beta", ad.Tensor(np.zeros(channels)))
        self.stats = ad.RunningStats(channels)
        self.eps = eps
        self.momentum = momentum
        self.add_buffer("running_mean",
                        lambda: self.stats.mean,
                        lambda v: setattr(self.stats, "mean", v))
        self.add_buffer("running_var",
                        lambda: self.stats.var,
                        lambda v: setattr(self.stats, "var", v))

    def __call__(self, x):
        return ad.batchnorm(x, self.gamma, self.beta, self.stats,
                            training=self.training, eps=self.eps,
                            momentum=self.momentum)


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
