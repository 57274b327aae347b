"""Numerical kernel: dense matrices, a small MLP with hand-written backprop,
SGD with momentum and the one training loop and minibatch schedule every fit
runs on, a counter-based RNG, and a finite-difference gradient checker.

Mlp owns the activation policy of every net duet builds or loads: ReLU on
each hidden layer and identity on the last, so a Layer is only its weight
and bias.

Matrices are plain 2-D float64 numpy arrays (row-major). Every public
operation validates shapes and leaves only finite values behind.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import InputError, NumericError


def _ensure_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")
    return arr


def as_matrix(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array, validating shape if given."""
    m = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if m.ndim != 2:
        raise InputError(f"matrix must be 2-D, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise InputError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise InputError(f"expected {cols} cols, got {m.shape[1]}")
    return m


def bound(default, **limits):
    """A config field defaulting to `default` that check_config holds to
    `limits`: any of ge, gt, le and lt."""
    return field(default=default, metadata=limits)


# annotation -> what a value must be; a tuple field is a list of integers
_KINDS = {"int": "an integer", "float": "a finite number",
          "float | None": "null or a finite number", "tuple": "a list of integers"}
_LIMITS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "lt": (operator.lt, "<")}


def _fits(f, v) -> bool:
    """Whether `v` (an item, for a tuple) suits field `f`; a bool is no int."""
    if v is None or isinstance(v, bool) or not isinstance(v, (int, float)):
        return v is None and f.type == "float | None"
    if isinstance(v, float) and (f.type in ("int", "tuple") or not math.isfinite(v)):
        return False
    return all(_LIMITS[op][0](v, b) for op, b in f.metadata.items())


def check_config(cfg, section: str) -> None:
    """Check each field of config dataclass `cfg` (its __post_init__ calls
    this) against its annotation string and its limits; an InputError names
    the key as 'section.key'. A field holding a dataclass checks itself."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            continue
        items = value if f.type == "tuple" else [value]
        if not (isinstance(items, (list, tuple)) and all(_fits(f, v) for v in items)):
            limits = " and ".join(f"{_LIMITS[op][1]} {b}" for op, b in f.metadata.items())
            raise InputError(f"bad config: {f'{section}.{f.name}'.lstrip('.')!r} must be "
                             f"{_KINDS[f.type]} {limits}".rstrip() + f", got {value!r}")
        if f.type == "tuple":
            setattr(cfg, f.name, tuple(value))


# ---------------------------------------------------------------------------
# RNG: keyed Philox streams. Child streams are derived by name, not by draw
# order, so any consumer can be re-run in isolation and reproduce its draws.
# ---------------------------------------------------------------------------


class Rng:
    """Deterministic counter-based generator with named, order-independent splits."""

    def __init__(self, seed: int, _path: tuple[str, ...] = ()):
        if not (0 <= int(seed) < 2**64):
            raise InputError(f"seed must be a u64, got {seed!r}")
        self.seed = int(seed)
        self._path = _path
        key = self._derive_key(self.seed, _path)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @staticmethod
    def _derive_key(seed: int, path: tuple[str, ...]) -> int:
        tag = str(seed).encode() + b"\x00" + b"\x1f".join(p.encode() for p in path)
        return int.from_bytes(hashlib.sha256(tag).digest()[:16], "little")

    def child(self, *names) -> "Rng":
        """Independent stream keyed by (seed, path). Same names, same stream."""
        return Rng(self.seed, self._path + tuple(str(n) for n in names))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    # draw helpers, delegated so callers never touch the Generator directly
    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def dirichlet(self, alpha, size=None):
        return self._gen.dirichlet(alpha, size)

    def gamma(self, shape, scale=1.0, size=None):
        return self._gen.gamma(shape, scale, size)

    def poisson(self, lam, size=None):
        return self._gen.poisson(lam, size)


# ---------------------------------------------------------------------------
# MLP with explicit tape and reverse-mode gradients.
# ---------------------------------------------------------------------------


@dataclass
class Layer:
    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)

    def __post_init__(self):
        self.weight = as_matrix(self.weight)
        self.bias = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
        if self.bias.ndim != 1 or self.bias.shape[0] != self.weight.shape[0]:
            raise InputError(
                f"bias shape {self.bias.shape} does not match weight rows {self.weight.shape[0]}"
            )


@dataclass
class Tape:
    """Activation cache from one forward pass, bound to the producing net version."""

    net_id: int
    version: int
    activations: list  # [a_0 .. a_K], each (n, dim)
    single: bool  # input was a 1-D vector


@dataclass
class MlpGradients:
    layers: list  # [(dW, db)] matching net.layers
    d_input: np.ndarray


class Mlp:
    """Fully-connected net; weights are (out, in). Each hidden layer maps a to
    relu(W a + b), the last to W a + b."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise InputError("Mlp needs at least one layer")
        for prev, cur in zip(layers, layers[1:]):
            if cur.weight.shape[1] != prev.weight.shape[0]:
                raise InputError(
                    f"layer chain mismatch: {prev.weight.shape} feeds {cur.weight.shape}"
                )
        self.layers = layers
        self._version = 0

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    @classmethod
    def init(cls, dims: list[int], rng: Rng) -> "Mlp":
        """Xavier-uniform weights, zero biases."""
        if len(dims) < 2:
            raise InputError("dims must list input and output sizes")
        layers = []
        for i in range(len(dims) - 1):
            fan_in, fan_out = dims[i], dims[i + 1]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.child("xavier", i).uniform(-limit, limit, size=(fan_out, fan_in))
            layers.append(Layer(w, np.zeros(fan_out)))
        return cls(layers)

    def touch(self):
        """Invalidate outstanding tapes after in-place parameter mutation."""
        self._version += 1

    def param_arrays(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.param_arrays()])

    def set_flat(self, vec: np.ndarray):
        vec = np.asarray(vec, dtype=np.float64)
        offset = 0
        for p in self.param_arrays():
            n = p.size
            p[...] = vec[offset : offset + n].reshape(p.shape)
            offset += n
        if offset != vec.size:
            raise InputError(f"flat vector has {vec.size} entries, net needs {offset}")
        self.touch()

    def forward(self, x: np.ndarray):
        """Run the net on a vector or a batch of row vectors. Returns (y, tape)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        a = x[None, :] if single else as_matrix(x)
        if a.shape[1] != self.in_dim:
            raise InputError(f"input dim {a.shape[1]} != net input dim {self.in_dim}")
        acts = [a]
        last = len(self.layers) - 1
        for k, layer in enumerate(self.layers):
            a = a @ layer.weight.T + layer.bias
            if k < last:
                a = np.maximum(a, 0.0)
            acts.append(a)
        _ensure_finite(a, "mlp forward output")
        y = a[0] if single else a
        return y, Tape(id(self), self._version, acts, single)

    def backward(self, tape: Tape, d_y: np.ndarray) -> MlpGradients:
        """Exact gradients of <d_y, y> w.r.t. parameters and input."""
        if tape.net_id != id(self) or tape.version != self._version:
            raise InputError("stale tape: parameters changed since the forward pass")
        d_y = np.asarray(d_y, dtype=np.float64)
        da = d_y[None, :] if tape.single else as_matrix(d_y)
        if da.shape != tape.activations[-1].shape:
            raise InputError(
                f"cotangent shape {da.shape} != output shape {tape.activations[-1].shape}"
            )
        grads: list = [None] * len(self.layers)
        last = len(self.layers) - 1
        for k in range(last, -1, -1):
            # relu's derivative is recoverable from its output alone
            dz = da if k == last else da * (tape.activations[k + 1] > 0.0)
            grads[k] = (dz.T @ tape.activations[k], dz.sum(axis=0))
            da = dz @ self.layers[k].weight
        d_input = da[0] if tape.single else da
        _ensure_finite(d_input, "mlp backward input gradient")
        return MlpGradients(grads, d_input)


# ---------------------------------------------------------------------------
# Optimizer and the training loop
# ---------------------------------------------------------------------------


@dataclass
class SgdState:
    """SGD with momentum: v <- mom*v + grad + wd*param; param <- param - lr*v."""

    lr: float
    momentum: float = 0.9
    weight_decay: float = 1e-4
    velocity: list = field(default_factory=list)

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        if len(params) != len(grads):
            raise InputError("params and grads length mismatch")
        if not self.velocity:
            self.velocity = [np.zeros_like(p) for p in params]
        if len(self.velocity) != len(params):
            raise InputError("optimizer bound to a different parameter set")
        for p, g, v in zip(params, grads, self.velocity):
            if p.shape != g.shape:
                raise InputError(f"grad shape {g.shape} != param shape {p.shape}")
            v *= self.momentum
            v += g
            if self.weight_decay:
                v += self.weight_decay * p
            p -= self.lr * v
            _ensure_finite(p, "sgd parameter update")


def minibatches(rng: Rng, epoch: int, n: int, batch_size: int) -> list[np.ndarray]:
    """Epoch `epoch`'s shuffled batches of n rows: whole batches only, so a
    batch loss keeps its size, or all n rows at once when n < batch_size."""
    perm = rng.child("shuffle", epoch).permutation(n)
    if n < batch_size:
        return [perm]
    return [perm[lo:lo + batch_size] for lo in range(0, n - batch_size + 1, batch_size)]


def descend(opt: SgdState, params: list[np.ndarray], epochs: int, batches,
            what: str) -> list[float]:
    """The training loop of every fit: batches(e) yields each step of epoch e
    as (loss, grads) and resumes once opt has stepped params. Returns every
    step's loss. A NumericError, and no RuntimeWarning for the float overflow
    on the way to it, reports as '<what> diverged at epoch <e>: <cause>'."""
    if epochs < 0:
        raise InputError(f"{what} needs epochs >= 0, got {epochs}")
    trace = []
    for epoch in range(epochs):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for loss, grads in batches(epoch):
                    if not math.isfinite(loss):
                        raise NumericError(f"non-finite loss {loss}")
                    trace.append(loss)
                    opt.step(params, grads)
        except NumericError as exc:
            raise NumericError(f"{what} diverged at epoch {epoch}: {exc}") from exc
    return trace


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


def fd_check(f, p: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between f's analytic gradient and central differences.

    f(p) must return (value, gradient). Error per coordinate is
    |analytic - numeric| / max(1, |analytic|).
    """
    p = np.asarray(p, dtype=np.float64)
    value, grad = f(p)
    grad = np.asarray(grad, dtype=np.float64)
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise NumericError("objective or gradient non-finite at base point")
    if grad.shape != p.shape:
        raise InputError(f"gradient shape {grad.shape} != parameter shape {p.shape}")
    worst = 0.0
    for i in range(p.size):
        step = np.zeros_like(p)
        step.flat[i] = h
        f_plus, _ = f(p + step)
        f_minus, _ = f(p - step)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"objective non-finite at perturbed coordinate {i}")
        numeric = (f_plus - f_minus) / (2.0 * h)
        analytic = grad.flat[i]
        err = abs(analytic - numeric) / max(1.0, abs(analytic))
        worst = max(worst, err)
    return worst
