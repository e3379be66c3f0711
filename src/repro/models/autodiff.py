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
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

Array = np.ndarray

#: The dtypes a tensor keeps as given; anything else is stored as float64.
_TAPE_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


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
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


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
        self.data = data if data.dtype in _TAPE_DTYPES else data.astype(np.float64)
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
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            # _unbroadcast always reduces, so its result is fresh.
            grad = _unbroadcast(grad, self.data.shape)
            owned = True
        if self.grad is not None:
            self.grad += grad
        elif sink:
            self._grad_out.fold(grad)
            self.grad = self._grad_out
        elif self._grad_out is not None:
            np.copyto(self._grad_out, grad)
            self.grad = self._grad_out
        else:
            self.grad = grad if owned else grad.copy()

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
            out.matmul(x, y)
            self.grad = out
            return
        if self.grad is None and out is not None:
            shape = np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (x.shape[-2], y.shape[-1])
            # A reshape copies only where the destination's own dims are strided.
            view = out.reshape(shape) if out.size == math.prod(shape) else None
            if view is not None and np.may_share_memory(view, out):
                np.matmul(x, y, out=view)
                self.grad = out
                return
        product = x @ y
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
    ``(workers, *shape)``.
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


def single_worker(loss_and_grad_workers, params, x, y, out=None):
    """A model's ``loss_and_grad`` as its worker-blocked pass on a
    one-worker block: ``x``, ``y`` and every destination get a leading
    axis of one, and the loss, each gradient (the destination itself
    where one was given) and the metrics come back without it."""
    out = out or {}
    dests = {name: dest[None] for name, dest in out.items()}
    losses, grads, metrics = loss_and_grad_workers(
        params, np.asarray(x)[None], np.asarray(y)[None], dests
    )
    grads = {name: out[name] if grad is dests.get(name) else grad[0] for name, grad in grads.items()}
    return float(losses[0]), grads, metrics[0]


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
    out_data = a.data + b.data

    def backward(grad: Array) -> None:
        a._accumulate(grad)
        b._accumulate(grad)

    return _node(out_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(grad: Array) -> None:
        a._accumulate(-grad, owned=True)

    return _node(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(grad: Array) -> None:
        if a.requires_grad:
            a._accumulate(grad * b.data, owned=True)
        if b.requires_grad:
            b._accumulate(grad * a.data, owned=True)

    return _node(out_data, (a, b), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    out_data = a.data**exponent

    def backward(grad: Array) -> None:
        a._accumulate(grad * exponent * a.data ** (exponent - 1), owned=True)

    return _node(out_data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(grad: Array) -> None:
        a._accumulate(grad * out_data, owned=True)

    return _node(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(grad: Array) -> None:
        a._accumulate(grad / a.data, owned=True)

    return _node(np.log(a.data), (a,), backward)


def relu(a: Tensor) -> Tensor:
    def backward(grad: Array) -> None:
        a._accumulate(grad * (a.data > 0), owned=True)

    return _node(np.maximum(a.data, 0.0), (a,), backward)


# -- linear algebra --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix multiply with NumPy batching semantics.

    Backward computes a gradient only for an operand that requires one
    (the data batch feeding a first layer gets none), and a matrix
    operand's gradient GEMM goes through
    :meth:`Tensor._accumulate_matmul`, i.e. straight into a leaf's
    gradient destination when it has one.
    """
    out_data = a.data @ b.data

    def backward(grad: Array) -> None:
        a_data, b_data = a.data, b.data
        if b_data.ndim == 1:
            if a.requires_grad:
                grad_a = np.multiply.outer(grad, b_data) if a_data.ndim > 1 else grad * b_data
                a._accumulate(grad_a, owned=True)
            if b.requires_grad:
                grad_b = (a_data * grad[..., None]).sum(axis=tuple(range(a_data.ndim - 1)))
                b._accumulate(grad_b, owned=True)
            return
        if a_data.ndim == 1:
            if a.requires_grad:
                a._accumulate(grad @ np.swapaxes(b_data, -1, -2), owned=True)
            if b.requires_grad:
                b._accumulate(np.multiply.outer(a_data, grad), owned=True)
            return
        if a.requires_grad:
            a._accumulate_matmul(grad, np.swapaxes(b_data, -1, -2))
        if b.requires_grad:
            b._accumulate_matmul(np.swapaxes(a_data, -1, -2), grad)

    return _node(out_data, (a, b), backward)


# -- reductions and shape ----------------------------------------------------------


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

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
        a._accumulate(np.asarray(grad).reshape(original))

    return _node(a.data.reshape(shape), (a,), backward)


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
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: Array) -> None:
        g = np.asarray(grad)
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (g - dot), owned=True)

    return _node(out_data, (a,), backward)


def _class_ids(op: str, labels, logits_shape: tuple[int, ...]) -> Array:
    """``labels`` as the flat class-id vector for logits of ``logits_shape``.

    One ``ValueError`` line for a float label array, a label count that
    is not the row count or a label ``>= C`` — instead of an
    ``IndexError`` from deep inside numpy's fancy indexing.  Reads the
    label vector only.
    """
    labels = np.asarray(labels).reshape(-1)
    rows = math.prod(logits_shape[:-1])
    if not np.issubdtype(labels.dtype, np.integer):
        problem = f"labels must be integer class ids, got dtype {labels.dtype}"
    elif labels.size != rows:
        problem = f"{labels.size} labels for {rows} rows"
    elif labels.size and labels.max() >= logits_shape[-1]:
        problem = f"label {labels.max()} is out of range for {logits_shape[-1]} classes"
    else:
        return labels
    raise ValueError(f"{op}: {problem} (logits {tuple(logits_shape)})")


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, workers: int = 1) -> tuple[Tensor, Array]:
    """Per-worker mean cross-entropy over the rows of ``logits`` (labels
    are class ids), as one tape node.

    Takes ``(N, C)`` logits, or ``(N, T, C)`` sequence logits with
    ``(N, T)`` labels, whose rows are ``workers`` equal worker-major
    blocks.  A label id < 0 marks padding (ignored): each worker's mean
    is over its own valid labels, at least one.  Returns the scalar node
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
    flat_logits = data.reshape(-1, data.shape[-1])
    shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    rows, valid = np.arange(flat_labels.size), flat_labels >= 0
    # A padding row picks nothing and gets no gradient; each worker's mean
    # is over its own valid labels, at least one.
    padding = None if valid.all() else ~valid
    ids = flat_labels if padding is None else np.where(valid, flat_labels, 0)
    picked = log_probs[rows, ids]
    if padding is None:
        counts = max(1, flat_labels.size // workers)
    else:
        picked[padding] = 0.0
        counts = np.maximum(valid.reshape(workers, -1).sum(axis=1), 1)
    losses = -picked.reshape(workers, -1).sum(axis=1) / np.asarray(counts, picked.dtype)
    probs = np.exp(log_probs)

    def backward(grad: Array) -> None:
        g = float(np.asarray(grad))
        dlogits = probs.copy()
        dlogits[rows, ids] -= 1.0
        if padding is None:
            dlogits *= g / counts
        else:
            dlogits[padding] = 0.0
            # Each worker's scale rounded to the block's dtype first, as a
            # Python-float scale is: a float32 block times float64 scales
            # rounds differently.
            scales = (g / counts).astype(dlogits.dtype)
            blocks = dlogits.reshape(workers, -1, data.shape[-1])
            blocks *= scales[:, None, None]
        logits._accumulate(dlogits.reshape(data.shape), owned=True)

    return _node(np.asarray(losses.sum()), (logits,), backward), losses


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis."""
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    x_hat = (a.data - mu) * inv
    out_data = x_hat * gamma.data + beta.data
    dim = a.data.shape[-1]

    def backward(grad: Array) -> None:
        g = np.asarray(grad)
        gamma._accumulate((g * x_hat).sum(axis=tuple(range(g.ndim - 1))), owned=True)
        beta._accumulate(g.sum(axis=tuple(range(g.ndim - 1))), owned=True)
        gx = g * gamma.data
        term1 = gx
        term2 = gx.mean(axis=-1, keepdims=True)
        term3 = x_hat * (gx * x_hat).mean(axis=-1, keepdims=True)
        a._accumulate(inv * (term1 - term2 - term3), owned=True)

    return _node(out_data, (a, gamma, beta), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup with scatter-add backward."""
    ids = np.asarray(ids)
    out_data = table.data[ids]

    def backward(grad: Array) -> None:
        g = np.asarray(grad)
        dtable = np.zeros_like(table.data)
        np.add.at(dtable, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
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
    out = np.zeros((*lead, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    out[..., padding : padding + h, padding : padding + w] = x
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
        cols.reshape(c * kernel * kernel, n * out_h * out_w),
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
    dpadded = np.zeros(padded_shape, dtype=dcols.dtype)
    slab = np.empty_like(dpadded)
    for i in range(kernel):
        rows = slice(i, i + out_h * stride, stride)
        for j in range(kernel):
            slab.fill(0.0)
            slab[:, :, rows, j : j + out_w * stride : stride] = dcols[:, i, j]
            dpadded += slab
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
        w_mat = w_data.reshape(out_c, -1)
        out_data = (w_mat @ cols).reshape(out_c, n, out_h, out_w)
    else:
        w_mat = w_data[0].reshape(out_c, -1)
        cols_w = _worker_columns(cols, workers)
        out_data = np.empty((out_c, n, out_h, out_w), dtype=w_data.dtype)
        np.matmul(w_mat, cols_w, out=_worker_columns(out_data.reshape(out_c, -1), workers))

    def backward(grad: Array) -> None:
        g = np.ascontiguousarray(np.asarray(grad)).reshape(out_c, -1)
        if workers is None:
            dw = (g @ cols.T).reshape(w_data.shape)
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
            dcols = w_mat.T @ g
        else:
            dcols = np.empty((w_mat.shape[1], g.shape[1]), dtype=w_data.dtype)
            np.matmul(w_mat.T, g_w, out=_worker_columns(dcols, workers))
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
    out_data = np.zeros((n, c, h // kernel, w // kernel), dtype=data.dtype)
    for i in range(kernel):
        row = data[:, :, i::kernel, ::kernel]
        for j in range(1, kernel):
            row = row + data[:, :, i::kernel, j::kernel]
        out_data += row
    out_data /= kernel * kernel

    def backward(grad: Array) -> None:
        g = np.asarray(grad) / (kernel * kernel)
        # Two repeat copies (columns first: the element-wise one runs on
        # the smaller array) beat one broadcast + copying reshape, and the
        # result is a fresh owned array for every kernel, 1 included.
        x._accumulate(g.repeat(kernel, axis=3).repeat(kernel, axis=2), owned=True)

    return _node(out_data, (x,), backward)


__all__ = [
    "Tensor",
    "leaf_tensors",
    "leaf_grads",
    "single_worker",
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
