"""A small reverse-mode autodiff tape over NumPy.

The convergence experiments (paper Fig. 10 / Table 2) need *real*
training through the actual sparsified-communication pipeline, and no
deep-learning framework is available offline — so this module provides
the minimum viable tape: broadcast-aware elementwise ops, (batched)
matmul, reductions, shape ops, ReLU, softmax / fused softmax
cross-entropy, layer norm, embedding lookup and an im2col convolution.

Design follows the classic micro-tape pattern: each op builds a node
with a closure that propagates the output gradient to its parents;
:meth:`Tensor.backward` runs the closures in reverse topological order.
Gradient correctness is property-tested against central finite
differences in ``tests/models/test_autodiff.py``.

Every numpy call an op makes goes through :func:`_k` (a kernel that
makes an array) or :func:`_do` (one that writes in place), so that a
blocked pass can be recorded once as a flat program of those kernels
and replayed for every later call of the same shape
(:class:`Programs`): the same numpy calls on the same operands, without
the tape's Python.
"""

from __future__ import annotations

import bisect
import functools
import math
import weakref
from contextvars import ContextVar
from typing import Callable, Mapping

import numpy as np

Array = np.ndarray

#: The dtypes a tensor keeps as given; anything else is stored as float64.
_TAPE_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: The pass being recorded in this context (:class:`Programs`), or
#: ``None``: set for the span of one recording, so a tape that runs in
#: another thread meanwhile is not logged into it.
_recording: ContextVar["_Trace | None"] = ContextVar("recording", default=None)


def _k(fn, *args, **kwargs) -> Array:
    """``fn(*args, **kwargs)``, a kernel that makes an array and can write
    it into ``out=`` instead (a ufunc, a reduction, ``np.matmul``,
    ``np.take`` or one of this module's ``out``-taking helpers)."""
    result = fn(*args, **kwargs)
    trace = _recording.get()
    if trace is not None:
        result = trace.made(np.asarray(result), fn, args, kwargs)
    return result


def _do(fn, *args, **kwargs) -> None:
    """``fn(*args, **kwargs)`` for its effect: an in-place kernel, a fold
    sink's call or a check on the inputs."""
    fn(*args, **kwargs)
    trace = _recording.get()
    if trace is not None:
        trace.log(fn, args, kwargs)


def _fresh(result: Array) -> Array:
    """``result``, a buffer just allocated, that later kernels write."""
    trace = _recording.get()
    if trace is not None:
        trace.fresh(result)
    return result


def _copied(result: Array, x: Array) -> Array:
    """``result``, a fresh copy of ``x`` (C-ordered in any shape of its
    size, or cast to another dtype)."""
    trace = _recording.get()
    if trace is not None:
        trace.fresh(result)
        trace.log(np.copyto, (result.reshape(x.shape), x), {})
    return result


def _zeros(shape, dtype) -> Array:
    """``np.zeros``; a replay refills it."""
    result = np.zeros(shape, dtype)
    trace = _recording.get()
    if trace is not None:
        trace.fresh(result)
        trace.log(np.copyto, (result, 0), {})
    return result


def _reshape(x: Array, shape) -> Array:
    """``x.reshape(shape)``, a view or (where ``x``'s strides allow none)
    a copy."""
    result = x.reshape(shape)
    if _recording.get() is None or not result.size or np.may_share_memory(result, x):
        return result
    return _copied(result, x)


def cast(x: Array, dtype) -> Array:
    """``x`` in ``dtype``: itself if it is, else a copy — what a model
    does to its batch before the tape (``np.asarray(x, dtype)``)."""
    x = np.asarray(x)
    return x if x.dtype == dtype else _copied(x.astype(dtype), x)


def contiguous(x: Array) -> Array:
    """``np.ascontiguousarray(x)``: ``x`` itself if it is C-contiguous."""
    result = np.ascontiguousarray(x)
    if _recording.get() is None or result is x or np.may_share_memory(result, x):
        return result
    return _copied(result, x)


def _repeat(x: Array, repeats: int, axis: int, out: Array | None = None) -> Array:
    """``x.repeat(repeats, axis)`` (``axis >= 0``), into ``out`` when given."""
    if out is None:
        return x.repeat(repeats, axis=axis)
    split = out.reshape(*x.shape[: axis + 1], repeats, *x.shape[axis + 1 :])
    np.copyto(split, np.expand_dims(x, axis + 1))


def _power(x: Array, exponent: float, out: Array | None = None) -> Array:
    """``x ** exponent``, into ``out`` when given.  NumPy's operator takes
    fast paths (``square``, ``sqrt``, ``reciprocal``) that ``np.power``
    does not, so a replay runs the operator and copies."""
    if out is None:
        return x**exponent
    np.copyto(out, x**exponent)


def _rows(table: Array, workers: Array, ids: Array, out: Array | None = None) -> Array:
    """``table[workers, ids]``, the embedding's gather, into ``out`` when
    given: a ``take`` from the one table under a stride-0 worker axis,
    when every id is in range, else the fancy index (which raises numpy's
    ``IndexError`` for an id out of range, as the tape does)."""
    if out is None:
        return table[workers, ids]
    rows = table.shape[1]
    if table.strides[0] == 0 and (not ids.size or (-rows <= ids.min() and ids.max() < rows)):
        np.take(table[0], ids, axis=0, out=out, mode="wrap")
    else:
        np.copyto(out, table[workers, ids])


_NO_KWARGS: dict = {}


class _Slot(tuple):
    """An array a recorded kernel touches inside a buffer the pass made:
    ``(root, offset, shape, strides, dtype)`` — that buffer, the byte
    offset of element 0 in it, and the array's own layout."""

    __slots__ = ()


def _address(array: Array) -> int:
    # Not ``__array_interface__["data"][0]``: that builds a dict whose
    # "typestr" key the interpreter interns and frees again on each call,
    # so every few 10 000 calls it rebuilds its table of interned strings
    # (a 1-2 MB block) inside whichever pass makes the call.
    return array.ctypes.data


class _Trace:
    """The log of one pass being recorded: each kernel in order, with
    every array it touches as a :class:`_Slot` of a buffer the pass
    allocated (a *root*), or as the array itself — a parameter, a
    gradient destination, a constant — which the program keeps.

    A root counts as the pass's while the tape holds it (a weak
    reference to its memory's owner), so memory that numpy hands to a
    later array is looked up as that array's.
    """

    def __init__(self) -> None:
        self.kernels: list[tuple] = []
        #: Per root: its bytes, the index of the first kernel that may
        #: write it and of the last that touches it (or of the end, for
        #: what the program returns: :meth:`slot` after the last kernel).
        self.sizes: list[int] = []
        self.births: list[int] = []
        self.lasts: list[int] = []
        self._starts: list[int] = []  # sorted start addresses of the live roots
        self._live: dict[int, tuple[int, int]] = {}  # start -> (end, root)
        self._refs: dict[int, tuple[weakref.ref, int]] = {}  # id -> (ref, start)
        # One slot per distinct view: a pass touches the same views often.
        self._slots: dict[_Slot, _Slot] = {}

    def fresh(self, result: Array, whole: bool = True) -> Array:
        """Register ``result``'s memory as a root: all its owner's, or
        (``whole=False``, a C-contiguous input) only its own."""
        owner = result
        while whole and isinstance(owner.base, np.ndarray):
            owner = owner.base
        start = _address(owner)
        if owner.nbytes and start not in self._live:
            bisect.insort(self._starts, start)
            self._live[start] = (start + owner.nbytes, len(self.sizes))
            self.sizes.append(owner.nbytes)
            self.births.append(len(self.kernels))
            self.lasts.append(len(self.kernels))
            ref = weakref.ref(owner, self._drop)
            self._refs[id(ref)] = ref, start
        return result

    def _drop(self, ref: weakref.ref) -> None:
        _, start = self._refs.pop(id(ref))
        self._starts.remove(start)
        del self._live[start]

    def slot(self, value):
        """``value`` (an argument of the next kernel) as the program
        holds it.  An array whose element 0 lies in a live root is a view
        of it: no other live array shares a root's memory."""
        if type(value) is tuple:
            return tuple(self.slot(item) for item in value)
        if not isinstance(value, np.ndarray) or not value.size:
            return value
        first = _address(value)
        at = bisect.bisect_right(self._starts, first) - 1
        if at < 0:
            return value
        start = self._starts[at]
        end, root = self._live[start]
        if first >= end:
            return value
        self.lasts[root] = len(self.kernels)
        view = _Slot((root, first - start, value.shape, value.strides, value.dtype))
        return self._slots.setdefault(view, view)

    def log(self, fn, args, kwargs) -> None:
        if isinstance(getattr(fn, "__self__", None), np.ndarray):
            # A bound method would keep writing the recorded array.
            raise TypeError(f"log {fn.__name__} with its array as an argument")
        kwargs = {name: self.slot(value) for name, value in kwargs.items()} if kwargs else _NO_KWARGS
        self.kernels.append((fn, self.slot(args), kwargs))

    def made(self, result: Array, fn, args, kwargs) -> Array:
        self.fresh(result)
        self.log(fn, args, {**kwargs, "out": result})
        return result


def _is_sink(dest) -> bool:
    """Whether a gradient destination (or ``None``) is a fold sink (see
    :class:`Tensor`)."""
    return hasattr(dest, "matmul")


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (reverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = _k(np.add.reduce, grad, axis=0)
    # Sum over axes that were size-1 in the original.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = _k(np.add.reduce, grad, axis=axis, keepdims=True)
    return _reshape(grad, shape)


class Tensor:
    """A NumPy array with a gradient slot and a backward closure.

    ``grad_out`` gives a leaf a *gradient destination*: an array of the
    leaf's shape, owned by the caller, that the tape computes the
    gradient into.  The first accumulation lands there (its old bytes
    are never read), later ones add to it, and ``grad`` *is* that array
    once :meth:`backward` has reached the leaf — so a gradient that has
    to end up in a caller's buffer is the only gradient-sized array, not
    computed elsewhere and copied.  Without a destination the tape
    allocates ``grad`` itself.
    Either way the same floating-point operations run in the same order.

    A destination may instead be a *fold sink*: any object with a
    ``matmul(x, y)`` method, which takes the leaf's worker-batched
    product ``x @ y`` whole, and a ``fold(grad)`` method, which takes
    any other gradient whole, as an array of the leaf's shape; either
    keeps only what it reduces the gradient to (the trainer's sinks
    fold each node's workers into one sum, a product slab by slab).
    The sink then stands as ``grad``.  Its leaf's gradient must be that
    one term: a second accumulation into it raises, since
    ``Σ_w (a_w + b_w)`` is not ``Σ_w a_w + Σ_w b_w`` in floating point.

    Every numpy call an op or an accumulation makes goes through
    :func:`_k` / :func:`_do`, so a pass run under :class:`Programs` is
    logged kernel by kernel and later replayed without any ``Tensor``: a
    replay touches a destination through the same calls (a sink through
    its ``matmul`` / ``fold``), so a destination must live where it lived
    when the pass was recorded (the cache keys it by buffer).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name", "_grad_out")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        *,
        grad_out: Array | None = None,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[Array], None] | None = None,
        name: str | None = None,
    ) -> None:
        data = np.asarray(data)
        self.data = data if data.dtype in _TAPE_DTYPES else cast(data, np.float64)
        if grad_out is not None and not _is_sink(grad_out) and grad_out.shape != self.data.shape:
            raise ValueError(
                f"gradient destination of shape {grad_out.shape} for a tensor of "
                f"shape {self.data.shape}"
            )
        self.grad: Array | None = None
        self._grad_out = grad_out
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # -- basic protocol -------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, grad={'set' if self.grad is not None else 'none'}{tag})"

    def _accumulate(self, grad: Array, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient slot.

        A tensor that does not require a gradient takes none (closures
        that would do real work for such an operand skip it themselves;
        this is the backstop).  The first accumulation is copied into
        the gradient destination when the tensor has one, or handed whole
        to a fold sink's ``fold``.  Otherwise
        ``owned=True`` promises the caller hands over a freshly
        allocated array it will neither mutate nor share — the first
        accumulation can then adopt it without the defensive copy.
        Closures that pass views of a child's gradient (add, reshape,
        transpose, sum's broadcast) must keep the default.
        """
        if not self.requires_grad:
            return
        sink = _is_sink(self._grad_out)
        if sink and self.grad is not None:
            raise _sink_error(self)
        grad = cast(grad, self.data.dtype)
        if grad.shape != self.data.shape:
            # _unbroadcast always reduces, so its result is fresh.
            grad = _unbroadcast(grad, self.data.shape)
            owned = True
        if self.grad is not None:
            _do(np.add, self.grad, grad, out=self.grad)
        elif sink:
            _do(self._grad_out.fold, grad)
            self.grad = self._grad_out
        elif self._grad_out is not None:
            _do(np.copyto, self._grad_out, grad)
            self.grad = self._grad_out
        else:
            self.grad = grad if owned else _copied(grad.copy(), grad)

    def _accumulate_matmul(self, x: Array, y: Array) -> None:
        """Add the product ``x @ y`` (both at least 2-D) into the gradient slot.

        A product with the tensor's size but another shape (a conv
        weight's ``(out_c, in_c * k * k)`` matrix form) is reshaped to
        the tensor's.  When this is the first accumulation and the
        tensor has a gradient destination the product's shape is a view
        of, the product lands in that view — one GEMM with ``out=`` the
        view — and no product-sized array is allocated.  A fold sink
        takes the first product as it is.
        """
        out = self._grad_out
        if _is_sink(out):
            if self.grad is not None:
                raise _sink_error(self)
            _do(out.matmul, x, y)
            self.grad = out
            return
        if self.grad is None and out is not None:
            shape = np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (x.shape[-2], y.shape[-1])
            # A reshape copies only where the destination's own dims are strided.
            view = out.reshape(shape) if out.size == math.prod(shape) else None
            if view is not None and np.may_share_memory(view, out):
                _do(np.matmul, x, y, out=view)
                self.grad = out
                return
        product = _k(np.matmul, x, y)
        if product.size == self.data.size:
            product = product.reshape(self.data.shape)
        self._accumulate(product, owned=True)

    # -- autodiff engine -------------------------------------------------------
    def backward(self, grad: Array | None = None) -> None:
        """Reverse-mode sweep from this tensor."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    topo.append(current)
                    continue
                if id(current) in seen:
                    continue
                seen.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    stack.append((parent, False))

        visit(self)
        self._accumulate(np.asarray(grad))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operators --------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        return add(self, _wrap(other))

    def __radd__(self, other) -> "Tensor":
        return add(_wrap(other), self)

    def __sub__(self, other) -> "Tensor":
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other) -> "Tensor":
        return add(_wrap(other), neg(self))

    def __mul__(self, other) -> "Tensor":
        return mul(self, _wrap(other))

    def __rmul__(self, other) -> "Tensor":
        return mul(_wrap(other), self)

    def __truediv__(self, other) -> "Tensor":
        other = _wrap(other)
        return mul(self, power(other, -1.0))

    def __neg__(self) -> "Tensor":
        return neg(self)

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, _wrap(other))

    # -- convenience methods -----------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes=None) -> "Tensor":
        return transpose(self, axes)

    def relu(self) -> "Tensor":
        return relu(self)


def _sink_error(leaf: Tensor) -> ValueError:
    return ValueError(
        f"a fold sink takes its leaf's whole gradient as one term, but the leaf of "
        f"shape {leaf.shape} has a second, which cannot be added once the workers are folded"
    )


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def leaf_tensors(
    params: Mapping[str, Array],
    out: Mapping[str, Array] | None = None,
    workers: int | None = None,
) -> dict[str, Tensor]:
    """One trainable leaf per parameter — how every model enters the tape.

    ``out`` maps parameter names to gradient destinations (see
    :class:`Tensor`); a name it lacks gets a tape-allocated gradient.
    ``workers`` puts a leading worker axis on every leaf as a read-only
    stride-0 view: ``W`` workers read the one array, nothing is
    replicated, and each leaf's gradient (and destination) is
    ``(workers, *shape)``.  A recorded pass (:class:`Programs`) keeps
    these views, so it reads a parameter where it lives: updated in
    place, the next replay sees the new values.
    """
    out = out or {}
    return {
        name: Tensor(
            value if workers is None else np.broadcast_to(value, (workers, *np.shape(value))),
            requires_grad=True,
            grad_out=out.get(name),
        )
        for name, value in params.items()
    }


def leaf_grads(leaves: Mapping[str, Tensor]) -> dict[str, Array]:
    """The gradients of :func:`leaf_tensors`' leaves after ``backward()``;
    each *is* its leaf's destination where one was given."""
    return {name: leaf.grad for name, leaf in leaves.items()}


def keep_heap(nbytes: int) -> None:
    """Have glibc keep a tape pass's transients on its heap: allocate and
    free, no page of it touched, a block of ``nbytes`` — more than the
    pass's largest temporary and more than half of what it holds at its
    peak.

    glibc serves a block from the heap up to a threshold, and keeps up to
    twice that of freed heap, where the threshold follows the largest
    mmapped block the process has *freed*.  Until that threshold is this
    large, every pass maps, faults in and returns its transients
    (≈ 3 000 page faults a pass: the CNN's then took 1.7x the time of the
    per-row calls it replaced, the Transformer's 2.3x its time with the
    block), and a trainer that keeps its dataset alive has freed nothing
    that large.  A no-op elsewhere.  Only a first call at a shape (the
    tape, recorded) needs it, and the arena its program replays into
    (:class:`Programs`), allocated right after, comes from the heap it
    keeps: a replay allocates nothing of that size.
    """
    np.empty(nbytes, dtype=np.uint8)


def _node(
    data: Array, parents: tuple[Tensor, ...], backward: Callable[[Array], None]
) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    return Tensor(
        data,
        requires_grad=requires,
        _parents=tuple(p for p in parents),
        _backward=backward if requires else None,
    )


# -- elementwise ---------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = _k(np.add, a.data, b.data)

    def backward(grad: Array) -> None:
        a._accumulate(grad)
        b._accumulate(grad)

    return _node(out_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(grad: Array) -> None:
        a._accumulate(_k(np.negative, grad), owned=True)

    return _node(_k(np.negative, a.data), (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = _k(np.multiply, a.data, b.data)

    def backward(grad: Array) -> None:
        if a.requires_grad:
            a._accumulate(_k(np.multiply, grad, b.data), owned=True)
        if b.requires_grad:
            b._accumulate(_k(np.multiply, grad, a.data), owned=True)

    return _node(out_data, (a, b), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    out_data = _k(_power, a.data, exponent)

    def backward(grad: Array) -> None:
        scaled = _k(np.multiply, grad, exponent)
        a._accumulate(_k(np.multiply, scaled, _k(_power, a.data, exponent - 1)), owned=True)

    return _node(out_data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = _k(np.exp, a.data)

    def backward(grad: Array) -> None:
        a._accumulate(_k(np.multiply, grad, out_data), owned=True)

    return _node(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(grad: Array) -> None:
        a._accumulate(_k(np.true_divide, grad, a.data), owned=True)

    return _node(_k(np.log, a.data), (a,), backward)


def relu(a: Tensor) -> Tensor:
    def backward(grad: Array) -> None:
        a._accumulate(_k(np.multiply, grad, _k(np.greater, a.data, 0)), owned=True)

    return _node(_k(np.maximum, a.data, 0.0), (a,), backward)


# -- linear algebra --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix multiply with NumPy batching semantics.

    Backward computes a gradient only for an operand that requires one
    (the data batch feeding a first layer gets none), and a matrix
    operand's gradient GEMM goes through
    :meth:`Tensor._accumulate_matmul`, i.e. straight into a leaf's
    gradient destination when it has one.
    """
    out_data = _k(np.matmul, a.data, b.data)

    def backward(grad: Array) -> None:
        a_data, b_data = a.data, b.data
        if b_data.ndim == 1:
            if a.requires_grad:
                outer = np.multiply.outer if a_data.ndim > 1 else np.multiply
                a._accumulate(_k(outer, grad, b_data), owned=True)
            if b.requires_grad:
                rows = tuple(range(a_data.ndim - 1))
                grad_b = _k(np.add.reduce, _k(np.multiply, a_data, grad[..., None]), axis=rows)
                b._accumulate(grad_b, owned=True)
            return
        if a_data.ndim == 1:
            if a.requires_grad:
                a._accumulate(_k(np.matmul, grad, np.swapaxes(b_data, -1, -2)), owned=True)
            if b.requires_grad:
                b._accumulate(_k(np.multiply.outer, a_data, grad), owned=True)
            return
        if a.requires_grad:
            a._accumulate_matmul(grad, np.swapaxes(b_data, -1, -2))
        if b.requires_grad:
            b._accumulate_matmul(np.swapaxes(a_data, -1, -2), grad)

    return _node(out_data, (a, b), backward)


# -- reductions and shape ----------------------------------------------------------


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = _k(np.add.reduce, a.data, axis=axis, keepdims=keepdims)

    def backward(grad: Array) -> None:
        g = np.asarray(grad)
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape))
            return
        if not keepdims:
            g = np.expand_dims(g, axis=axis)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return _node(out_data, (a,), backward)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.data.shape[ax] for ax in axis]))
    else:
        count = a.data.shape[axis]
    summed = tensor_sum(a, axis=axis, keepdims=keepdims)
    return mul(summed, Tensor(np.asarray(1.0 / count, dtype=a.data.dtype)))


def reshape(a: Tensor, shape) -> Tensor:
    original = a.data.shape

    def backward(grad: Array) -> None:
        a._accumulate(_reshape(np.asarray(grad), original))

    return _node(_reshape(a.data, shape), (a,), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    def backward(grad: Array) -> None:
        if axes is None:
            a._accumulate(np.asarray(grad).T)
        else:
            inverse = np.argsort(axes)
            a._accumulate(np.transpose(np.asarray(grad), inverse))

    return _node(np.transpose(a.data, axes), (a,), backward)


# -- fused nn ops --------------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = _k(np.subtract, a.data, _k(np.maximum.reduce, a.data, axis=axis, keepdims=True))
    e = _k(np.exp, shifted)
    out_data = _k(np.true_divide, e, _k(np.add.reduce, e, axis=axis, keepdims=True))

    def backward(grad: Array) -> None:
        g = np.asarray(grad)
        dot = _k(np.add.reduce, _k(np.multiply, g, out_data), axis=axis, keepdims=True)
        a._accumulate(_k(np.multiply, out_data, _k(np.subtract, g, dot)), owned=True)

    return _node(out_data, (a,), backward)


def _class_ids(op: str, labels, logits_shape: tuple[int, ...]) -> Array:
    """``labels`` as the flat class-id vector for logits of ``logits_shape``.

    One ``ValueError`` line for a float label array, a label count that
    is not the row count or a label ``>= C`` — instead of an
    ``IndexError`` from deep inside numpy's fancy indexing.  Reads the
    label vector only.
    """
    labels = _reshape(np.asarray(labels), -1)
    rows = math.prod(logits_shape[:-1])
    if not np.issubdtype(labels.dtype, np.integer):
        problem = f"labels must be integer class ids, got dtype {labels.dtype}"
    elif labels.size != rows:
        problem = f"{labels.size} labels for {rows} rows"
    else:
        # The one check that reads the labels: a replay runs it too.
        _do(_labels_in_range, op, labels, logits_shape)
        return labels
    raise ValueError(f"{op}: {problem} (logits {tuple(logits_shape)})")


def _labels_in_range(op: str, labels: Array, logits_shape: tuple[int, ...]) -> None:
    """:func:`_class_ids`' error for a label ``>= C``."""
    if labels.size and labels.max() >= logits_shape[-1]:
        problem = f"label {labels.max()} is out of range for {logits_shape[-1]} classes"
        raise ValueError(f"{op}: {problem} (logits {tuple(logits_shape)})")


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, workers: int = 1) -> tuple[Tensor, Array]:
    """Per-worker mean cross-entropy over the rows of ``logits`` (labels
    are class ids), as one tape node.

    Takes ``(N, C)`` logits with ``(N,)`` labels, or sequence logits
    ``(..., T, C)`` with ``(..., T)`` labels, whose rows are ``workers``
    equal worker-major blocks.  A label id < 0 marks padding (ignored):
    each worker's mean is over its own valid labels, at least one.  Returns the scalar node
    — the sum of the per-worker means, whose backward scales each
    worker's rows by ``1 / count`` exactly as a one-worker call does —
    and the ``(workers,)`` array of per-worker means.
    """
    data = logits.data
    flat_labels = _class_ids("softmax_cross_entropy", labels, data.shape)
    if flat_labels.size % workers:
        raise ValueError(
            f"softmax_cross_entropy: {flat_labels.size} rows do not split over {workers} workers"
        )
    classes = data.shape[-1]
    flat_logits = _reshape(data, (-1, classes))
    shifted = _k(np.subtract, flat_logits, _k(np.maximum.reduce, flat_logits, axis=1, keepdims=True))
    log_z = _k(np.log, _k(np.add.reduce, _k(np.exp, shifted), axis=1, keepdims=True))
    log_probs = _k(np.subtract, shifted, log_z)
    valid = _k(np.greater_equal, flat_labels, 0)
    # A padding row picks class 0 and gets no gradient; each worker's mean
    # is over its own valid labels, at least one.  Whether any row is
    # padding is part of a recorded pass's key.
    padding = None if valid.all() else _k(np.invert, valid)
    ids = flat_labels if padding is None else _k(np.multiply, flat_labels, valid)
    # Each row's pick as a flat index: a gather (and the backward's
    # scatter) that a replay runs into its buffers.
    picks = _k(np.add, np.arange(0, flat_labels.size * classes, classes), ids)
    picked = _k(np.take, log_probs.reshape(-1), picks, mode="clip")
    if padding is None:
        counts = max(1, flat_labels.size // workers)
    else:
        _do(np.copyto, picked, 0.0, where=padding)
        counts = _k(np.maximum, _k(np.add.reduce, valid.reshape(workers, -1), axis=1), 1)
    total = _k(np.negative, _k(np.add.reduce, picked.reshape(workers, -1), axis=1))
    losses = _k(np.true_divide, total, cast(np.asarray(counts), picked.dtype))
    probs = _k(np.exp, log_probs)

    def backward(grad: Array) -> None:
        # 1.0, the seed of ``backward()``: the same for every replay.
        g = float(np.asarray(grad))
        dlogits = _copied(probs.copy(), probs)
        _do(np.subtract.at, dlogits.reshape(-1), picks, 1.0)
        if padding is None:
            _do(np.multiply, dlogits, g / counts, out=dlogits)
        else:
            _do(np.copyto, dlogits, 0.0, where=padding[:, None])
            # Each worker's scale rounded to the block's dtype first, as a
            # Python-float scale is: a float32 block times float64 scales
            # rounds differently.
            scales = cast(_k(np.true_divide, g, counts), dlogits.dtype)
            blocks = dlogits.reshape(workers, -1, classes)
            _do(np.multiply, blocks, scales[:, None, None], out=blocks)
        logits._accumulate(dlogits.reshape(data.shape), owned=True)

    return _node(_k(np.add.reduce, losses), (logits,), backward), losses


#: Layer normalisation's variance floor.
_LN_EPS = 1e-5


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Layer normalisation over the last axis of ``(W, ..., dim)``
    activations, with each worker's ``(W, dim)`` gain and bias.

    Each worker's gain and bias gradients are one ``sum`` over its middle
    axes — what a one-worker ``(..., dim)`` normalisation sums in one
    call, and so the same bits; a product routed through ``mul`` / ``add``
    nodes would be reduced one axis at a time.
    """
    # numpy's ``mean`` and ``var`` over the last axis, kernel by kernel:
    # ``var``'s own mean and deviations are ``mu`` and ``centered``.
    mu = _mean_last(a.data)
    centered = _k(np.subtract, a.data, mu)
    var = _k(np.add.reduce, _k(np.square, centered), axis=-1, keepdims=True)
    _do(np.true_divide, var, np.intp(a.shape[-1]), out=var, casting="unsafe")
    inv = _k(np.true_divide, 1.0, _k(np.sqrt, _k(np.add, var, _LN_EPS)))
    x_hat = _k(np.multiply, centered, inv)
    # The per-worker gain and bias under the activations' middle axes.
    lead = (len(a.data), *[1] * (a.ndim - 2), a.shape[-1])
    gain = _reshape(gamma.data, lead)
    out_data = _k(np.add, _k(np.multiply, x_hat, gain), _reshape(beta.data, lead))
    middle = tuple(range(1, a.ndim - 1))

    def backward(grad: Array) -> None:
        g = np.asarray(grad)
        gamma._accumulate(_k(np.add.reduce, _k(np.multiply, g, x_hat), axis=middle), owned=True)
        beta._accumulate(_k(np.add.reduce, g, axis=middle), owned=True)
        gx = _k(np.multiply, g, gain)
        term2 = _mean_last(gx)
        term3 = _k(np.multiply, x_hat, _mean_last(_k(np.multiply, gx, x_hat)))
        a._accumulate(_k(np.multiply, inv, _k(np.subtract, _k(np.subtract, gx, term2), term3)), owned=True)

    return _node(out_data, (a, gamma, beta), backward)


def _mean_last(x: Array) -> Array:
    """``x.mean(axis=-1, keepdims=True)``: numpy's sum, then its division
    by the count as an ``intp`` (a float32 sum is divided in float64)."""
    total = _k(np.add.reduce, x, axis=-1, keepdims=True)
    _do(np.true_divide, total, np.intp(x.shape[-1]), out=total, casting="unsafe")
    return total


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup in each worker's ``(W, rows, dim)`` table by its
    ``(W, ...)`` ids: ``(W, ..., dim)``.  The backward scatter-adds every
    worker's rows in one ``np.add.at``, each worker's ids in their order —
    a one-worker lookup's additions."""
    ids = np.asarray(ids)
    workers = np.arange(len(ids)).reshape(-1, *[1] * (ids.ndim - 1))
    out_data = _k(_rows, table.data, workers, ids)

    def backward(grad: Array) -> None:
        g = np.asarray(grad)
        dtable = _zeros(table.data.shape, table.data.dtype)
        rows = (np.broadcast_to(workers, ids.shape).reshape(-1), _reshape(ids, -1))
        _do(np.add.at, dtable, rows, _reshape(g, (-1, table.data.shape[-1])))
        table._accumulate(dtable, owned=True)

    return _node(out_data, (table,), backward)


# -- convolution (im2col) --------------------------------------------------------------

def _check_window(op: str, shape, kernel: int, stride: int = 1, padding: int = 0, weight_shape=None) -> None:
    """Reject a hostile conv / pool window before any array work.

    One ``ValueError`` line naming the offending argument, the input
    shape and (for a convolution) the weight shape — instead of a
    ``ZeroDivisionError``, a reshape or broadcast error from deep inside
    numpy, or a silent ``(..., 0, 0)`` output whose mean is NaN.
    """
    if len(shape) != 4:
        problem = f"input must be 4-D, got {len(shape)}-D"
    elif kernel < 1:
        problem = f"kernel must be >= 1, got {kernel}"
    elif stride < 1:
        problem = f"stride must be >= 1, got {stride}"
    elif padding < 0:
        problem = f"padding must be >= 0, got {padding}"
    elif kernel > min(shape[2], shape[3]) + 2 * padding:
        problem = (
            f"kernel {kernel} does not fit the "
            f"{shape[2] + 2 * padding}x{shape[3] + 2 * padding} padded input"
        )
    else:
        return
    raise _window_error(op, problem, shape, weight_shape)


def _window_error(op: str, problem: str, shape, weight_shape=None) -> ValueError:
    """The one-line shape of every conv / pool argument error."""
    against = "" if weight_shape is None else f", weight {tuple(weight_shape)}"
    return ValueError(f"{op}: {problem} (input {tuple(shape)}{against})")


def _pad_spatial(x: Array, padding: int) -> Array:
    """Zero-pad the two trailing (spatial) dims (faster than ``np.pad``)."""
    if not padding:
        return x
    *lead, h, w = x.shape
    out = _zeros((*lead, h + 2 * padding, w + 2 * padding), x.dtype)
    _do(np.copyto, out[..., padding : padding + h, padding : padding + w], x)
    return out


def _im2col_cnhw(x: Array, kernel: int, stride: int) -> tuple[Array, int, int]:
    """Feature-major im2col over a channel-major ``(c, n, h, w)`` array:
    ``(c * k * k, n * out_h * out_w)``.

    The batch axis folds into the GEMM's N dimension, so one large
    matrix multiply replaces ``n`` tiny per-sample GEMMs.
    """
    c, n, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    shape = (c, kernel, kernel, n, out_h, out_w)
    strides = (
        x.strides[0],
        x.strides[2],
        x.strides[3],
        x.strides[1],
        x.strides[2] * stride,
        x.strides[3] * stride,
    )
    cols = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    return (
        _reshape(cols, (c * kernel * kernel, n * out_h * out_w)),
        out_h,
        out_w,
    )


def _col2im_cnhw(dcols: Array, padded_shape: tuple[int, ...], stride: int) -> Array:
    """Sum ``(c, k, k, n, out_h, out_w)`` column gradients back onto the padded input.

    Every kernel tap's window is *copied* into a zeroed slab of the
    padded shape and the slab is added whole: a strided copy plus a
    contiguous add cost about two thirds of the strided in-place add
    they replace.  Per element that is ``0 + t00 + t01 + ...`` in tap order —
    the additions, and the order, of accumulating the windows one by one
    into a zeroed array: a slab's ``+0.0`` where its tap does not reach
    changes nothing, because the running sum starts at ``+0.0`` and so is
    never ``-0.0``.
    """
    _, kernel, _, _, out_h, out_w = dcols.shape
    dpadded = _zeros(padded_shape, dcols.dtype)
    slab = _fresh(np.empty_like(dpadded))
    for i in range(kernel):
        rows = slice(i, i + out_h * stride, stride)
        for j in range(kernel):
            _do(np.ndarray.fill, slab, 0.0)
            _do(np.copyto, slab[:, :, rows, j : j + out_w * stride : stride], dcols[:, i, j])
            _do(np.add, dpadded, slab, out=dpadded)
    return dpadded


def _worker_columns(mat: Array, workers: int) -> Array:
    """``(rows, W * cols)`` as the ``(W, rows, cols)`` view of each
    worker's column block — a GEMM operand or ``out=`` with the per-row
    call's shape and transposition, only a wider leading dimension."""
    return mat.reshape(len(mat), workers, -1).transpose(1, 0, 2)


def conv2d_cnhw(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """The tape's convolution, over channel-major ``(c, n, h, w)`` activations.

    ``weight`` is ``(out_c, in_c, k, k)``.  Channel-major end to end, no
    tensor is transposed: the forward GEMM output ``(out_c, n * L)``
    *is* the output layout, the incoming gradient reshapes to GEMM form
    as a view, and the input gradient (one GEMM back to column space,
    then col2im) lands directly in ``(in_c, n, h, w)``.  Elementwise ops
    and spatial pooling are layout-agnostic (spatial dims stay last), so
    a model transposes its NCHW batch once on the way in and its
    ``(c, n)`` features once before the head.

    A weight with :func:`leaf_tensors`' leading stride-0 worker axis,
    ``(W, out_c, in_c, k, k)``, makes this the worker-blocked op: the
    sample axis is ``W`` workers' batches back to back and the weight
    gradient is per worker.  Pad, im2col and col2im run once on the
    whole block; the three GEMMs run per worker, as batched matmuls over
    :func:`_worker_columns` views, because one widened GEMM is not the
    per-row call's bits on this BLAS (a column's bits of ``w_mat @ cols``
    depend on the column count).
    """
    w_data, shape = weight.data, x.data.shape
    if w_data.ndim not in (4, 5):
        problem = f"weight must be 4-D, or 5-D with a leading worker axis, got {w_data.ndim}-D"
        raise _window_error("conv2d_cnhw", problem, shape, w_data.shape)
    workers = w_data.shape[0] if w_data.ndim == 5 else None
    out_c, in_c, kernel, kernel2 = w_data.shape[-4:]
    _check_window("conv2d_cnhw", shape, kernel, stride, padding, w_data.shape)
    if kernel != kernel2:
        problem = "only square kernels supported"
    elif shape[0] != in_c:
        problem = f"channel-major input has {shape[0]} channels, weight expects {in_c}"
    elif workers is not None and w_data.strides[0] != 0:
        problem = "the weight's worker axis must be a stride-0 view of one weight"
    elif workers is not None and (workers < 1 or shape[1] % workers):
        problem = f"{workers} workers do not divide the sample axis"
    else:
        problem = None
    if problem is not None:
        raise _window_error("conv2d_cnhw", problem, shape, w_data.shape)
    padded = _pad_spatial(x.data, padding)
    n = shape[1]
    cols, out_h, out_w = _im2col_cnhw(padded, kernel, stride)
    if workers is None:
        w_mat = _reshape(w_data, (out_c, -1))
        out_data = _k(np.matmul, w_mat, cols).reshape(out_c, n, out_h, out_w)
    else:
        w_mat = _reshape(w_data[0], (out_c, -1))
        cols_w = _worker_columns(cols, workers)
        out_data = _fresh(np.empty((out_c, n, out_h, out_w), dtype=w_data.dtype))
        _do(np.matmul, w_mat, cols_w, out=_worker_columns(out_data.reshape(out_c, -1), workers))

    def backward(grad: Array) -> None:
        g = contiguous(np.asarray(grad)).reshape(out_c, -1)
        if workers is None:
            dw = _k(np.matmul, g, cols.T).reshape(w_data.shape)
            weight._accumulate(dw, owned=True)
        else:
            g_w = _worker_columns(g, workers)
            weight._accumulate_matmul(g_w, cols_w.transpose(0, 2, 1))
        if not x.requires_grad:
            return
        # Input gradient: one GEMM back to column space, then col2im.  At
        # small spatial maps this moves ~(out_c/in_c) * (core/L) times
        # fewer bytes than a dilated transposed convolution would.
        if workers is None:
            dcols = _k(np.matmul, w_mat.T, g)
        else:
            dcols = _fresh(np.empty((w_mat.shape[1], g.shape[1]), dtype=w_data.dtype))
            _do(np.matmul, w_mat.T, g_w, out=_worker_columns(dcols, workers))
        dcols = dcols.reshape(in_c, kernel, kernel, n, out_h, out_w)
        dpadded = _col2im_cnhw(dcols, padded.shape, stride)
        if padding:
            dpadded = dpadded[:, :, padding:-padding, padding:-padding]
        x._accumulate(dpadded, owned=True)

    return _node(out_data, (x, weight), backward)


def avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping average pooling over the two trailing (spatial) dims.

    Layout-agnostic: NCHW and the hot path's CNHW activations pool
    alike.  Every window is summed in one stated order, whatever the
    shape or memory layout: from ``+0.0``, each window row left to
    right, then the rows top to bottom — ``0 + (x00 + x01) + (x10 + x11)``
    for ``kernel=2`` — as ``kernel * kernel`` strided-slice adds, then one
    division by ``kernel * kernel``.  That is numpy's own order for a
    ``mean`` over the two window axes of ``x.reshape(n, c, oh, k, ow, k)``
    on a C-ordered input with ``ow >= 2`` and ``k < 8`` (elsewhere that
    reduce coalesces the window into one run or unrolls it pairwise, so
    its bits depended on the shape), at about a fifth of its cost.
    """
    data = x.data
    _check_window("avg_pool2d", data.shape, kernel)
    n, c, h, w = data.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims {(h, w)} not divisible by kernel {kernel}")
    out_data = _zeros((n, c, h // kernel, w // kernel), data.dtype)
    for i in range(kernel):
        row = data[:, :, i::kernel, ::kernel]
        for j in range(1, kernel):
            row = _k(np.add, row, data[:, :, i::kernel, j::kernel])
        _do(np.add, out_data, row, out=out_data)
    _do(np.true_divide, out_data, kernel * kernel, out=out_data)

    def backward(grad: Array) -> None:
        g = _k(np.true_divide, np.asarray(grad), kernel * kernel)
        # Two repeat copies (columns first: the element-wise one runs on
        # the smaller array) beat one broadcast + copying reshape, and the
        # result is a fresh owned array for every kernel, 1 included.
        x._accumulate(_k(_repeat, _k(_repeat, g, kernel, 3), kernel, 2), owned=True)

    return _node(out_data, (x,), backward)


# -- recorded passes ---------------------------------------------------------------------


def tape_pass(logits_fn, params: Mapping[str, Array], xs: Array, ys: Array, out) -> tuple:
    """One tape pass over ``W = len(xs)`` workers' batches: leaves with a
    worker axis (:func:`leaf_tensors`, into ``out``),
    ``logits_fn(leaves, xs)``, the per-worker cross-entropy and its
    backward.  Returns the ``(W,)`` losses, the logits and each leaf's
    gradient."""
    workers = len(xs)
    tensors = leaf_tensors(params, out, workers)
    logits = logits_fn(tensors, xs)
    loss, losses = softmax_cross_entropy(logits, ys, workers)
    loss.backward()
    return losses, logits.data, leaf_grads(tensors)


#: A program's gradient that is the caller's destination of this call.
_GIVEN = object()

def _pack(sizes: list[int], births: list[int], lasts: list[int]) -> tuple[list[int], int]:
    """Byte offsets for buffers live from kernel ``births[i]`` to
    ``lasts[i]``, two sharing bytes only when their lives do not overlap:
    the largest placed first, each at the lowest offset free over its
    life.  Returns the offsets and the bytes they span."""
    offsets, placed = [0] * len(sizes), []
    for root in sorted(range(len(sizes)), key=lambda root: -sizes[root]):
        size, birth, last = sizes[root], births[root], lasts[root]
        start = 0
        for low, high in sorted((lo, hi) for lo, hi, b, l in placed if b <= last and birth <= l):
            if start + size <= low:
                break
            start = max(start, high)
        offsets[root] = start
        placed.append((start, start + size, birth, last))
    return offsets, max((high for _, high, _, _ in placed), default=0)


def _joined(parts, grads) -> tuple[Array, dict, Array]:
    """``(losses, grads, logits)`` of a call run in ``parts``, one
    ``(losses, logits)`` per pass."""
    losses = np.concatenate([losses for losses, _ in parts])
    logits = parts[0][1] if len(parts) == 1 else np.concatenate([logits for _, logits in parts])
    return losses, grads, logits


def _place(value, arena: Array, offsets: list[int]):
    """``value`` with every :class:`_Slot` in it made an array in ``arena``."""
    if isinstance(value, _Slot):
        root, offset, shape, strides, dtype = value
        return np.ndarray(shape, dtype, arena, offsets[root] + offset, strides)
    if type(value) is tuple:
        return tuple(_place(item, arena, offsets) for item in value)
    return value


class _Program:
    """One recorded call: its kernels in order, the inputs it copies in
    and what it returns, all bound to buffers in the program's own arena
    — each at a byte offset from :func:`_pack`, so that buffers whose
    lives do not overlap share memory, and the arena is about the pass's
    peak, not the sum of its temporaries."""

    def __init__(self, trace: _Trace, inputs: tuple, parts, grads: dict, out: Mapping) -> None:
        # After the last kernel: what the program returns lives to the end.
        slot = trace.slot
        parts = [slot(part) for part in parts]
        grads = {
            name: None if grad is None else _GIVEN if grad is out.get(name) else slot(grad)
            for name, grad in grads.items()
        }
        sizes = [-(-nbytes // 64) * 64 for nbytes in trace.sizes]
        offsets, size = _pack(sizes, trace.births, trace.lasts)
        # On the heap, where the recorded pass's transients were freed,
        # from its first 64-byte boundary: every buffer is cache-line
        # aligned, wherever the heap puts the block.
        keep_heap(size + 63)
        arena = np.empty(size + 63, dtype=np.uint8)
        skip = -arena.ctypes.data % 64
        place = functools.partial(_place, arena=arena[skip : skip + size], offsets=offsets)
        self._run = [
            functools.partial(fn, *place(args), **{name: place(v) for name, v in kwargs.items()})
            for fn, args, kwargs in trace.kernels
        ]
        self._xs, self._ys = place(inputs)
        self._outputs = [place(part) for part in parts]
        self._returned = {name: place(grad) for name, grad in grads.items()}

    def replay(self, xs: Array, ys: Array, out: Mapping) -> tuple[Array, dict, Array]:
        np.copyto(self._xs, xs)
        np.copyto(self._ys, ys)
        for kernel in self._run:
            kernel()
        grads = {
            name: out[name] if grad is _GIVEN else None if grad is None else grad.copy()
            for name, grad in self._returned.items()
        }
        return _joined(self._outputs, grads)


def _buffer(value) -> tuple | int:
    """Where a parameter or a destination lives: a fold sink by identity,
    an array by its memory (address, shape, strides, dtype), not by the
    view object — a caller builds fresh views of the same rows each call."""
    if _is_sink(value):
        return id(value)
    value = np.asarray(value)
    return _address(value), value.shape, value.strides, value.dtype.str


def _tape_call(logits_fn, params, xs: Array, ys: Array, out: Mapping, per_pass: int):
    """A call on the tape, in passes of ``per_pass`` workers: ``(parts,
    grads)``, one ``(losses, logits)`` per pass; a gradient without a
    destination in ``out`` is computed into a fresh array."""
    workers = len(xs)
    dests = {
        name: out[name] if name in out else _fresh(np.empty((workers, *np.shape(value)), np.asarray(value).dtype))
        for name, value in params.items()
    }
    parts, missing = [], set()
    for lo in range(0, workers, per_pass):
        rows = slice(lo, lo + per_pass)
        block = dests if per_pass >= workers else {name: dest[rows] for name, dest in dests.items()}
        losses, logits, grads = tape_pass(logits_fn, params, xs[rows], ys[rows], block)
        parts.append((losses, logits))
        missing.update(name for name, grad in grads.items() if grad is None)
    return parts, {name: None if name in missing else dest for name, dest in dests.items()}


def _record(logits_fn, params, xs: Array, ys: Array, out: Mapping, per_pass: int):
    """Run a call on the tape, as :meth:`Programs.run`'s miss, logging it:
    ``(program, (losses, grads, logits))``."""
    trace = _Trace()
    token = _recording.set(trace)
    try:
        # The batch itself is the first pass's input (a replay copies
        # into its buffer), unless it has to be copied to be contiguous.
        inputs = tuple(trace.fresh(np.ascontiguousarray(batch), whole=False) for batch in (xs, ys))
        slots = tuple(trace.slot(batch) for batch in inputs)  # copied in before kernel 0
        parts, grads = _tape_call(logits_fn, params, *inputs, out, per_pass)
    finally:
        _recording.reset(token)
    return _Program(trace, slots, parts, grads, out), _joined(parts, grads)


class Programs:
    """A model's recorded blocked call, replayed while its key holds.

    Every call of the same shape builds the same graph, so the first
    call at a key runs the tape (:func:`tape_pass`, over consecutive
    blocks of ``per_pass`` workers) and logs every numpy call it makes
    as a kernel over the buffers it allocated; each later call at that
    key copies its batch in and runs the kernels, each into its recorded
    buffer — the same calls, in the same order, on operands of the same
    shape, strides and dtype, so the same bits, without building a
    ``Tensor``, a closure or a topological sort.  Nothing of activation
    size is allocated after the first call.

    The key is everything a kernel's shape, operands or branch depends
    on: the batches' shapes and dtypes, which workers have a padding
    label (the cross-entropy's padding steps run only for them), the pass
    width, and the memory of each parameter and destination (a fold
    sink by identity) — bound by buffer, as a trainer updates its
    parameters in place and hands the same destinations each step.
    What a replay must still read, it reads: the label range check runs
    on every call.  A gradient the caller gave no destination for is a
    program buffer, returned as a copy.

    One program is kept, with its arena: a call at another key (a new
    trainer around the model, a restored checkpoint, another batch
    shape) drops it before recording, so the buffers of a trainer that
    is gone are not kept alive.  The outputs of one call (the logits
    above all) are valid until the next.  Not thread-safe: one call
    records or replays at a time.
    """

    def __init__(self) -> None:
        self._key: tuple | None = None
        self._program: _Program | None = None

    def run(self, logits_fn, params, xs, ys, out=None, *, per_pass: int | None = None, heap: int = 0):
        """``(losses, grads, logits)`` of the tape pass
        ``logits_fn(leaves, xs)`` + cross-entropy over ``W`` workers'
        ``(W, B, ...)`` batches, run ``per_pass`` workers at a time (all
        by default), each gradient in its destination in ``out`` where
        one is given (then the destination itself is returned).  A miss
        first calls :func:`keep_heap` with ``heap``."""
        xs, ys = np.asarray(xs), np.asarray(ys)
        out = out or {}
        per_pass = per_pass or len(xs)
        key = (
            xs.shape,
            xs.dtype.str,
            ys.shape,
            ys.dtype.str,
            (ys < 0).reshape(len(ys), -1).any(axis=1).tobytes(),
            per_pass,
            tuple((name, _buffer(value)) for name, value in params.items()),
            tuple((name, _buffer(dest)) for name, dest in out.items()),
        )
        if key == self._key:
            return self._program.replay(xs, ys, out)
        self._key = self._program = None  # its arena and the buffers it binds go first
        keep_heap(heap)
        self._program, result = _record(logits_fn, params, xs, ys, out, per_pass)
        self._key = key
        return result


__all__ = [
    "Tensor",
    "leaf_tensors",
    "leaf_grads",
    "keep_heap",
    "cast",
    "contiguous",
    "tape_pass",
    "Programs",
    "add",
    "neg",
    "mul",
    "power",
    "exp",
    "log",
    "relu",
    "matmul",
    "tensor_sum",
    "tensor_mean",
    "reshape",
    "transpose",
    "softmax",
    "softmax_cross_entropy",
    "layer_norm",
    "embedding",
    "conv2d_cnhw",
    "avg_pool2d",
]
