"""Rank-4 tensors with reverse-mode automatic differentiation.

Every value in this library is a rank-4 array with axes (batch, channel,
height, width); scalars are (1, 1, 1, 1).  A fixed rank keeps every
operation's broadcasting and reduction semantics explicit and testable.

Differentiation is taped: each operation returns a new :class:`Tensor`
holding references to its parents and a closure that routes the output
gradient to them.  :meth:`Tensor.backward` replays the tape in reverse
topological order and then frees it, so a graph can be traversed once.
Gradients accumulate across separate forward/backward rounds until
:meth:`Tensor.zero_grad` clears them.

The default element type is float32; :func:`set_default_dtype` switches the
library to float64 for high-precision gradient verification.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .rng import Rng

_default_dtype = np.float32
# Per thread, so that one thread's no_grad cannot leak into another's forward.
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


def set_default_dtype(dtype) -> None:
    """Set the element type used by tensor creation routines."""
    global _default_dtype
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _default_dtype = dt.type


def default_dtype():
    """Element type currently used by tensor creation routines."""
    return _default_dtype


@contextlib.contextmanager
def using_dtype(dtype):
    """Context manager that temporarily switches the default element type."""
    prev = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


def grad_enabled() -> bool:
    return _grad_enabled.get()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction in the calling thread."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


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
            data = data.astype(_default_dtype)
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

    def detach(self) -> "Tensor":
        """A new leaf tensor sharing this tensor's data, outside the graph."""
        return Tensor(self.data, requires_grad=False)

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
    """A trainable leaf tensor with a dotted-path name."""

    __slots__ = ("name",)

    def __init__(self, data: np.ndarray, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.shape}, dtype={self.data.dtype.name})"


def make_node(data: np.ndarray, parents: Sequence[Tensor], bwd: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result in a graph node when gradients are live.

    ``bwd`` receives the output gradient and must route contributions to the
    parents via :meth:`Tensor.accumulate_grad`.
    """
    req = _grad_enabled.get() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = tuple(parents)
        out._bwd = bwd
    return out


# -- creation ------------------------------------------------------------------


def from_array(arr, requires_grad: bool = False) -> Tensor:
    """Tensor from a rank-4 array-like, cast to the default element type."""
    a = np.asarray(arr, dtype=_default_dtype)
    _check_rank4(a, "array")
    return Tensor(a, requires_grad=requires_grad)


def scalar(value: float, requires_grad: bool = False) -> Tensor:
    """A (1, 1, 1, 1) tensor holding one value."""
    return Tensor(np.full((1, 1, 1, 1), value, dtype=_default_dtype), requires_grad=requires_grad)


def zeros(shape: tuple[int, int, int, int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_default_dtype), requires_grad=requires_grad)


def full(shape: tuple[int, int, int, int], value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, value, dtype=_default_dtype), requires_grad=requires_grad)


def uniform(shape: tuple[int, int, int, int], rng: Rng, lo: float = 0.0, hi: float = 1.0,
            requires_grad: bool = False) -> Tensor:
    """Uniform draws in [lo, hi) shaped into a rank-4 tensor."""
    n = int(np.prod(shape))
    vals = rng.uniform64(n, lo, hi).astype(_default_dtype).reshape(shape)
    return Tensor(vals, requires_grad=requires_grad)


def kaiming_uniform(shape: tuple[int, int, int, int], rng: Rng, fan_in: int,
                    requires_grad: bool = False) -> Tensor:
    """Uniform draws in +-sqrt(6 / fan_in), the ReLU-family init bound."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = math.sqrt(6.0 / fan_in)
    return uniform(shape, rng, -bound, bound, requires_grad=requires_grad)


# -- elementwise unary -----------------------------------------------------------


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _softplus_np(x: np.ndarray) -> np.ndarray:
    """Numerically stable log(1 + exp(x))."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def bwd(g: np.ndarray) -> None:
        x.accumulate_grad(g * (x.data > 0))

    return make_node(out, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid_np(x.data)

    def bwd(g: np.ndarray) -> None:
        x.accumulate_grad(g * s * (1.0 - s))

    return make_node(s, (x,), bwd)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    s = _sigmoid_np(x.data)
    out = x.data * s

    def bwd(g: np.ndarray) -> None:
        x.accumulate_grad(g * s * (1.0 + x.data * (1.0 - s)))

    return make_node(out, (x,), bwd)


def softplus(x: Tensor) -> Tensor:
    out = _softplus_np(x.data)

    def bwd(g: np.ndarray) -> None:
        x.accumulate_grad(g * _sigmoid_np(x.data))

    return make_node(out, (x,), bwd)


def atan(x: Tensor) -> Tensor:
    out = np.arctan(x.data)

    def bwd(g: np.ndarray) -> None:
        x.accumulate_grad(g / (1.0 + x.data * x.data))

    return make_node(out, (x,), bwd)


def neg(x: Tensor) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        x.accumulate_grad(-g)

    return make_node(-x.data, (x,), bwd)


# -- elementwise binary ----------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the axes that were broadcast up from ``shape``."""
    if g.shape == shape:
        return g
    axes = tuple(i for i in range(4) if shape[i] == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)


def _binary_shapes(a: Tensor, b: Tensor) -> tuple[int, ...]:
    sa, sb = a.shape, b.shape
    for i in range(4):
        if sa[i] != sb[i] and sa[i] != 1 and sb[i] != 1:
            raise ValueError(f"shapes {sa} and {sb} are not broadcast-compatible")
    return tuple(max(sa[i], sb[i]) for i in range(4))


def _coerce(other, like: Tensor) -> Tensor:
    if isinstance(other, Tensor):
        return other
    if isinstance(other, (int, float)):
        return Tensor(np.full((1, 1, 1, 1), other, dtype=like.data.dtype))
    raise TypeError(f"cannot combine Tensor with {type(other).__name__}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    out = a.data + b.data

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(g, a.shape))
        b.accumulate_grad(_unbroadcast(g, b.shape))

    return make_node(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    out = a.data - b.data

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(g, a.shape))
        b.accumulate_grad(_unbroadcast(-g, b.shape))

    return make_node(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    out = a.data * b.data

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return make_node(out, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    out = a.data / b.data

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(g / b.data, a.shape))
        b.accumulate_grad(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return make_node(out, (a, b), bwd)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    _binary_shapes(a, b)
    out = np.minimum(a.data, b.data)
    take_a = a.data <= b.data

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(g * take_a, a.shape))
        b.accumulate_grad(_unbroadcast(g * ~take_a, b.shape))

    return make_node(out, (a, b), bwd)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    _binary_shapes(a, b)
    out = np.maximum(a.data, b.data)
    take_a = a.data >= b.data

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(g * take_a, a.shape))
        b.accumulate_grad(_unbroadcast(g * ~take_a, b.shape))

    return make_node(out, (a, b), bwd)


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
    ax = _norm_axes(axes)
    out = x.data.sum(axis=ax, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        x.accumulate_grad(np.broadcast_to(g, x.shape).copy())

    return make_node(out, (x,), bwd)


def tmean(x: Tensor, axes: int | Iterable[int] | None = None) -> Tensor:
    """Mean over the given axes; the result stays rank-4."""
    ax = _norm_axes(axes)
    count = int(np.prod([x.shape[a] for a in ax]))
    out = x.data.mean(axis=ax, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        x.accumulate_grad(np.broadcast_to(g, x.shape).copy() / count)

    return make_node(out, (x,), bwd)


# -- structural ops ---------------------------------------------------------------


def slice4(x: Tensor, n: slice = slice(None), c: slice = slice(None),
           h: slice = slice(None), w: slice = slice(None)) -> Tensor:
    """Step-1 rectangular slice along any subset of the four axes."""
    for s, name in ((n, "n"), (c, "c"), (h, "h"), (w, "w")):
        if s.step not in (None, 1):
            raise ValueError(f"slice4 supports step-1 slices only (axis {name})")
    key = (n, c, h, w)
    out = x.data[key].copy()

    def bwd(g: np.ndarray) -> None:
        full_grad = np.zeros_like(x.data)
        full_grad[key] = g
        x.accumulate_grad(full_grad)

    return make_node(out, (x,), bwd)


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
