"""Rank-4 tensors with reverse-mode automatic differentiation.

Every value in this library is a rank-4 array with axes (batch, channel,
height, width); scalars are (1, 1, 1, 1).  A fixed rank keeps every
operation's broadcasting and reduction semantics explicit and testable.

Differentiation is taped: each operation returns a new :class:`Tensor`
holding references to its parents and a closure that routes the output
gradient to them.  The node builders :func:`unary` (one input) and
``_binary`` (two broadcast inputs) write that closure from an op's local
derivatives; other ops pass their own to :func:`make_node`.
:meth:`Tensor.backward` replays the tape in reverse topological order and
then frees it, so a graph can be traversed once.
Gradients accumulate across separate forward/backward rounds until
:meth:`Tensor.zero_grad` clears them.

The default element type is float32; :func:`using_dtype` switches the
calling thread to float64 for high-precision gradient verification.  Every
mode is per thread (the element type, :func:`no_grad`, and
:mod:`firedet.nn`'s ``mac_counting`` and ``train_mode``): :func:`switched`
sets each in :mod:`contextvars`, so no thread's switch reaches another's.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .rng import Rng

_default_dtype = contextvars.ContextVar("default_dtype", default=np.float32)
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


def default_dtype():
    """Element type currently used by tensor creation routines."""
    return _default_dtype.get()


@contextlib.contextmanager
def switched(var: contextvars.ContextVar, value):
    """Context manager that sets ``var`` to ``value`` in the calling thread only."""
    token = var.set(value)
    try:
        yield value
    finally:
        var.reset(token)


def using_dtype(dtype):
    """Context manager that switches the calling thread's default element type."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    return switched(_default_dtype, dt.type)


def no_grad():
    """Context manager that disables graph construction in the calling thread."""
    return switched(_grad_enabled, False)


def _check_rank4(arr: np.ndarray, what: str) -> None:
    if arr.ndim != 4:
        raise ValueError(f"{what} must be rank-4 (N, C, H, W), got shape {arr.shape}")


class Tensor:
    """A rank-4 array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        data = np.asarray(data)
        _check_rank4(data, "tensor data")
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(_default_dtype.get())
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable[[np.ndarray], None] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- gradient plumbing ---------------------------------------------------

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into this tensor's gradient buffer."""
        if not self.requires_grad:
            return
        if g.shape != self.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match tensor shape {self.shape}")
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` seeds the output gradient and defaults to all-ones (the
        natural seed for a scalar loss).  The tape is freed afterwards, so
        each graph supports a single backward pass.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"seed gradient shape {grad.shape} != tensor shape {self.shape}")

        # Iterative depth-first topological sort (post-order).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        self.accumulate_grad(grad)
        for node in reversed(topo):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)
            # Free the tape as we go; leaves keep their gradients.
            node._parents = ()
            node._bwd = None


class Parameter(Tensor):
    """A trainable leaf tensor; its dotted name comes from ``Module.named_parameters``."""

    __slots__ = ()

    def __init__(self, data: np.ndarray):
        super().__init__(data, requires_grad=True)


def make_node(data: np.ndarray, parents: Sequence[Tensor], bwd: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result in a graph node when gradients are live.

    ``bwd`` receives the output gradient and must route contributions to the
    parents via :meth:`Tensor.accumulate_grad`.  A node is taped only when a
    parent requires grad, so a one-input op's ``bwd`` needs no check;
    :func:`unary` and ``_binary`` build ``bwd`` from the op's local derivatives.
    """
    req = _grad_enabled.get() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = tuple(parents)
        out._bwd = bwd
    return out


def unary(x: Tensor, out: np.ndarray, grad: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """One-input op: the node for value ``out`` whose backward adds ``grad(g)``,
    the gradient of ``x`` given the output gradient ``g``, into ``x``."""
    return make_node(out, (x,), lambda g: x.accumulate_grad(grad(g)))


# -- creation ------------------------------------------------------------------


def from_array(arr) -> Tensor:
    """Tensor from a rank-4 array-like, cast to the default element type."""
    a = np.asarray(arr, dtype=_default_dtype.get())
    _check_rank4(a, "array")
    return Tensor(a)


def scalar(value: float) -> Tensor:
    """A (1, 1, 1, 1) constant holding one value."""
    return Tensor(np.full((1, 1, 1, 1), value, dtype=_default_dtype.get()))


def zeros(shape: tuple[int, int, int, int]) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_default_dtype.get()))


def kaiming_uniform(shape: tuple[int, int, int, int], rng: Rng | None) -> Parameter:
    """A parameter of uniform draws in +-sqrt(6 / fan_in), the ReLU-family init bound.

    ``fan_in`` is in * k * k, the product of the last three extents of
    ``shape``.  With ``rng`` None it is zeros and nothing is drawn: the values
    are about to be overwritten by a weight archive.
    """
    fan_in = math.prod(shape[1:])
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    if rng is None:
        return Parameter(np.zeros(shape, dtype=_default_dtype.get()))
    bound = math.sqrt(6.0 / fan_in)
    vals = rng.uniform64(int(np.prod(shape)), -bound, bound)
    return Parameter(vals.astype(_default_dtype.get()).reshape(shape))


# -- elementwise unary -----------------------------------------------------------


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of a float array.

    With ``z = exp(-|x|)`` it is ``1 / (z + 1)`` for ``x >= 0`` and
    ``z / (z + 1)`` otherwise, so ``exp`` never overflows; one division
    serves both signs.  As z lies in [0, 1], the numerator ``max(z, x >= 0)`` is 1
    where x >= 0 and z (a NaN too) elsewhere, with no per-element branch to mispredict.
    """
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    num = np.maximum(z, x >= 0)
    z += 1.0
    num /= z
    return num


def _softplus_np(x: np.ndarray) -> np.ndarray:
    """Numerically stable log(1 + exp(x))."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def relu(x: Tensor) -> Tensor:
    return unary(x, np.maximum(x.data, 0.0), lambda g: g * (x.data > 0))


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid_np(x.data)
    return unary(x, s, lambda g: g * s * (1.0 - s))


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    s = _sigmoid_np(x.data)
    return unary(x, x.data * s, lambda g: g * s * (1.0 + x.data * (1.0 - s)))


def softplus(x: Tensor) -> Tensor:
    return unary(x, _softplus_np(x.data), lambda g: g * _sigmoid_np(x.data))


def atan(x: Tensor) -> Tensor:
    return unary(x, np.arctan(x.data), lambda g: g / (1.0 + x.data * x.data))


def neg(x: Tensor) -> Tensor:
    return unary(x, -x.data, np.negative)


# -- elementwise binary ----------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the axes that were broadcast up from ``shape``."""
    if g.shape == shape:
        return g
    axes = tuple(i for i in range(4) if shape[i] == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)


def _coerce(other, like: Tensor) -> Tensor:
    if isinstance(other, Tensor):
        return other
    if isinstance(other, (int, float)):
        return Tensor(np.full((1, 1, 1, 1), other, dtype=like.data.dtype))
    raise TypeError(f"cannot combine Tensor with {type(other).__name__}")


def _binary(a: Tensor, b: Tensor, forward: Callable) -> Tensor:
    """Broadcasting op: ``forward(x, y)`` runs after the shape check and returns
    ``(value, da, db)``, where ``da(g)`` and ``db(g)`` are ``g`` times each partial;
    each is summed to its operand's shape, and skipped if that needs no grad."""
    sa, sb = a.shape, b.shape
    if any(i != j and i != 1 and j != 1 for i, j in zip(sa, sb)):
        raise ValueError(f"shapes {sa} and {sb} are not broadcast-compatible")
    out, da, db = forward(a.data, b.data)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(da(g), sa))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(db(g), sb))

    return make_node(out, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, lambda x, y: (x + y, lambda g: g, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, lambda x, y: (x - y, lambda g: g, np.negative))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, lambda x, y: (x * y, lambda g: g * y, lambda g: g * x))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, lambda x, y: (x / y, lambda g: g / y, lambda g: -g * x / (y * y)))


def _first_on_ties(value: np.ndarray, take_a: np.ndarray):
    return value, lambda g: g * take_a, lambda g: g * ~take_a


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    return _binary(a, b, lambda x, y: _first_on_ties(np.minimum(x, y), x <= y))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    return _binary(a, b, lambda x, y: _first_on_ties(np.maximum(x, y), x >= y))


# -- reductions -------------------------------------------------------------------


def _norm_axes(axes: int | Iterable[int] | None) -> tuple[int, ...]:
    if axes is None:
        return (0, 1, 2, 3)
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(sorted(set(int(a) for a in axes)))
    if any(a < 0 or a > 3 for a in axes):
        raise ValueError(f"axes must be within 0..3, got {axes}")
    return axes


def tsum(x: Tensor, axes: int | Iterable[int] | None = None) -> Tensor:
    """Sum over the given axes; the result stays rank-4 (kept dims of size 1)."""
    out = x.data.sum(axis=_norm_axes(axes), keepdims=True)
    return unary(x, out, lambda g: np.broadcast_to(g, x.shape))


def tmean(x: Tensor, axes: int | Iterable[int] | None = None) -> Tensor:
    """Mean over the given axes; the result stays rank-4."""
    ax = _norm_axes(axes)
    count = int(np.prod([x.shape[a] for a in ax]))
    out = x.data.mean(axis=ax, keepdims=True)
    return unary(x, out, lambda g: np.broadcast_to(g / count, x.shape))


# -- structural ops ---------------------------------------------------------------


def slice4(x: Tensor, n: slice = slice(None), c: slice = slice(None),
           h: slice = slice(None), w: slice = slice(None)) -> Tensor:
    """Step-1 rectangular slice along any subset of the four axes."""
    for s, name in ((n, "n"), (c, "c"), (h, "h"), (w, "w")):
        if s.step not in (None, 1):
            raise ValueError(f"slice4 supports step-1 slices only (axis {name})")
    key = (n, c, h, w)

    def grad(g: np.ndarray) -> np.ndarray:
        full_grad = np.zeros_like(x.data)
        full_grad[key] = g
        return full_grad

    return unary(x, x.data[key].copy(), grad)


# -- operator sugar ----------------------------------------------------------------


def _install_operators() -> None:
    Tensor.__add__ = lambda self, other: add(self, _coerce(other, self))
    Tensor.__radd__ = lambda self, other: add(_coerce(other, self), self)
    Tensor.__sub__ = lambda self, other: sub(self, _coerce(other, self))
    Tensor.__rsub__ = lambda self, other: sub(_coerce(other, self), self)
    Tensor.__mul__ = lambda self, other: mul(self, _coerce(other, self))
    Tensor.__rmul__ = lambda self, other: mul(_coerce(other, self), self)
    Tensor.__truediv__ = lambda self, other: div(self, _coerce(other, self))
    Tensor.__rtruediv__ = lambda self, other: div(_coerce(other, self), self)
    Tensor.__neg__ = neg
    Tensor.relu = relu
    Tensor.sigmoid = sigmoid
    Tensor.silu = silu
    Tensor.softplus = softplus
    Tensor.sum = tsum
    Tensor.mean = tmean


_install_operators()


# -- finite-difference verification --------------------------------------------------


def grad_check(fn: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-4,
               max_elements_per_param: int | None = None,
               min_analytic: float = 0.0) -> float:
    """Compare reverse-mode gradients against central finite differences.

    ``fn`` rebuilds and returns the scalar output from ``params`` on every
    call and must be deterministic.  Returns the worst relative error
    ``|a - n| / max(1e-8, |a| + |n|)`` over all checked elements.  When
    ``max_elements_per_param`` is set, each parameter is probed only at its
    largest-magnitude gradient elements (deterministic, ties by index),
    bounding the number of forward evaluations while keeping the probes on
    coordinates where the central difference is well conditioned.  When
    ``min_analytic`` is positive, elements with ``|analytic| < min_analytic``
    are not probed: a central difference carries absolute noise on the order
    of ``machine_eps * |f| / eps``, so derivatives near zero cannot be
    resolved by this oracle at any tolerance.  Callers that skip elements
    this way should verify the skipped directions separately (for example
    with a whole-parameter directional probe, which has healthy magnitude
    whenever a genuinely nonzero gradient was dropped).

    Parameters should be float64 for the comparison to be meaningful.
    """
    for p in params:
        if not p.requires_grad:
            raise ValueError("grad_check requires parameters with requires_grad=True")
        p.zero_grad()

    out = fn()
    if out.size != 1:
        raise ValueError(f"grad_check requires a scalar output, got shape {out.shape}")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        size = flat.size
        a_flat = a.reshape(-1)
        candidates = np.arange(size)
        if min_analytic > 0.0:
            candidates = candidates[np.abs(a_flat[candidates]) >= min_analytic]
        if max_elements_per_param is not None and candidates.size > max_elements_per_param:
            order = np.argsort(-np.abs(a_flat[candidates]), kind="stable")
            idx = np.sort(candidates[order[:max_elements_per_param]])
        else:
            idx = candidates
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            with no_grad():
                hi = fn().item()
            flat[i] = orig - eps
            with no_grad():
                lo = fn().item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(a_flat[i] - numeric) / max(1e-8, abs(a_flat[i]) + abs(numeric))
            worst = max(worst, float(err))
    return worst
