"""Reverse-mode automatic differentiation over numpy arrays.

Each differentiable operation returns a :class:`Var` that wraps its value
and links a graph node: the node holds the gradient, the parents' nodes and
a vector-Jacobian-product closure, never a value. :func:`backward` walks the
recorded nodes once, in reverse topological order, accumulating gradients
into the leaves and freeing each interior node's tape as soon as its VJP has
run. The contract is gradient correctness (checked against central finite
differences), not any particular taping style.

``backward`` reads only the root's value; each VJP reads the arrays its
closure captured, and captures no ``Var``. An interior value therefore
lives while code holds its ``Var`` or a VJP holds the array: a forward frees
a temporary by dropping its name, and the tape holds only what backward reads.
A VJP may keep an input as a function instead of the array: a ``Var``'s
``rebuild``, when set, rebuilds its value bit for bit from arrays its
producer's VJP keeps anyway, so a consumer that keeps ``rebuild`` keeps no
array of its own.

Gradient recording can be suspended with :func:`no_grad`, e.g. for teacher
forwards and validation passes; :func:`grad_enabled` says whether it is on.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_grad_enabled = True


def grad_enabled() -> bool:
    """Whether operations record a graph now (False inside :func:`no_grad`)."""
    return _grad_enabled


@contextmanager
def no_grad():
    """Context manager that disables graph recording."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """A vertex of the reverse-mode graph: a gradient, the parents' nodes and
    the VJP, with no value."""

    __slots__ = ("grad", "parents", "vjp")

    def __init__(self):
        self.grad = None
        self.parents: tuple = ()
        self.vjp = None


class Var:
    """One numpy array and its graph node.

    Leaves (parameters, inputs) have no parents. ``grad`` is None until a
    backward pass deposits a gradient of the same shape as ``value``.
    ``rebuild``, when not None, is a zero-argument function that returns
    ``value``'s bits anew from arrays the producer's VJP keeps; it captures
    no ``Var``.
    """

    __slots__ = ("value", "name", "rebuild", "_node")

    def __init__(self, value, name: str = ""):
        self.value = value if isinstance(value, np.ndarray) else np.asarray(value)
        self.name = name
        self.rebuild = None
        self._node = _Node()

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, g):
        self._node.grad = g

    @property
    def _vjp(self):
        return self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node.vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Var(shape={self.value.shape}, dtype={self.value.dtype}{tag})"


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(np.asarray(x))


def constant(x) -> np.ndarray:
    """Unwrap a Var (or pass an array through) as a non-differentiable value."""
    return x.value if isinstance(x, Var) else np.asarray(x)


def record(value: np.ndarray, parents: tuple, vjp) -> Var:
    """Create an interior node, or a detached leaf while gradients are off.

    ``vjp(grad_out)`` must return one gradient per parent (None for parents
    that do not receive gradient).
    """
    out = Var(value)
    if _grad_enabled:
        node = out._node
        node.parents = tuple(p._node for p in parents)
        node.vjp = vjp
    return out


def backward(root: Var) -> None:
    """Accumulate gradients of a scalar root into every reachable leaf.

    The pass consumes the graph. Once an interior node's VJP has run, the
    node drops its closure, its parents and its gradient, so the arrays the
    closures hold are freed while the pass runs rather than when the caller
    lets go of the root. Leaves keep their ``grad``. A new backward needs a
    new forward. A VJP's closure is dropped before its gradients are summed,
    and only a sum this pass allocated is added into in place: a VJP may hand
    one array to two parents, as ``add`` does.
    """
    if root.value.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")

    # Iterative post-order DFS: parents precede children in `order`.
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    root.grad = np.ones_like(root.value)
    owned: set[_Node] = set()  # nodes whose grad is a sum this pass allocated
    while order:
        node = order.pop()
        vjp, parents, grad = node.vjp, node.parents, node.grad
        if vjp is None:
            continue
        node.vjp, node.parents, node.grad = None, (), None
        owned.discard(node)  # its sum is handed to the VJP
        if grad is None:
            continue
        grads = vjp(grad)
        del vjp, grad
        for parent, g in zip(parents, grads):
            if g is None:
                continue
            if parent.grad is None:
                parent.grad = g
            elif parent in owned and parent.grad.dtype == np.result_type(parent.grad, g):
                parent.grad += g
            else:
                parent.grad = parent.grad + g
                owned.add(parent)
