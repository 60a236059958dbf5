import weakref

import numpy as np
import pytest
from oracles import buffer_of, graph_nodes, project_scalar, vjp_buffers

from lkcanet import ops
from lkcanet.autodiff import Var, backward, no_grad, record
from lkcanet.ops import add, mul, scale


class TestGraph:
    def test_add_mul_grads(self):
        a = Var(np.array([1.0, 2.0]))
        b = Var(np.array([3.0, 4.0]))
        out = mul(add(a, b), b)  # (a + b) * b
        loss = record(np.asarray(out.value.sum()), (out,), lambda g: (g * np.ones(2),))
        backward(loss)
        assert np.allclose(a.grad, b.value)
        assert np.allclose(b.grad, a.value + 2 * b.value)

    def test_diamond_accumulation(self):
        x = Var(np.array([2.0]))
        y = add(mul(x, x), scale(x, 3.0))  # x^2 + 3x -> dy/dx = 2x + 3
        backward(y)
        assert np.allclose(x.grad, [7.0])

    def test_reuse_across_branches(self):
        x = Var(np.array([1.5]))
        shared = scale(x, 2.0)
        y = add(shared, shared)  # 4x
        backward(y)
        assert np.allclose(x.grad, [4.0])

    def test_no_grad_builds_leaves(self):
        x = Var(np.array([1.0]))
        with no_grad():
            y = scale(x, 2.0)
        assert y._vjp is None
        backward(y)
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = Var(np.ones(3))
        with pytest.raises(ValueError):
            backward(scale(x, 1.0))

    def test_nonparticipating_leaf_keeps_no_grad(self):
        x = Var(np.array([1.0]))
        unused = Var(np.array([9.0]))
        backward(scale(x, 2.0))
        assert x.grad is not None
        assert unused.grad is None

    @pytest.mark.parametrize("swap", [False, True])
    def test_an_array_handed_to_two_parents_is_never_added_into(self, swap):
        # s's gradient is a sum backward allocated (s is read twice), and
        # add's VJP hands that one array to both x and y. x then receives
        # 3 more from scale; y's gradient must stay 2, whichever branch
        # backward reaches first.
        x, y = Var(np.array([1.0])), Var(np.array([2.0]))
        s = add(x, y)
        twice, thrice = add(s, s), scale(x, 3.0)
        backward(add(thrice, twice) if swap else add(twice, thrice))
        assert np.array_equal(x.grad, [5.0])
        assert np.array_equal(y.grad, [2.0])

    def test_backward_releases_the_graph(self):
        # Once the test drops h's Var, h's array is held only by the 3x3
        # conv's VJP closure, so it must die once backward has run that VJP.
        rng = np.random.default_rng(0)
        x = Var(rng.standard_normal((1, 2, 4, 4)))
        w = Var(rng.standard_normal((3, 2, 3, 3)))
        h = scale(x, 2.0)
        held = weakref.ref(h.value)
        out = ops.conv2d(h, w)
        del h
        loss = project_scalar(out, np.ones_like(out.value))
        assert held() is not None
        backward(loss)
        for node in (out, loss):
            assert node._node.parents == ()
            assert node._vjp is None
            assert node.grad is None
        assert held() is None
        assert x.grad is not None and w.grad is not None

    @pytest.mark.parametrize("groups", [1, 2])
    def test_dense_vjp_keeps_only_its_input(self, groups):
        # A dense or grouped 3x3 conv's VJP keeps its input and weights and
        # rebuilds the im2col buffer, nine times the input, when it runs.
        rng = np.random.default_rng(1)
        x = Var(rng.standard_normal((2, 4, 6, 6)))
        w = Var(rng.standard_normal((6, 4 // groups, 3, 3)))
        out = ops.conv2d(x, w, groups=groups)
        kept = vjp_buffers(graph_nodes(out))
        assert set(kept) == {id(buffer_of(x.value)), id(buffer_of(w.value))}


class TestLifetime:
    """An interior value lives while code holds its Var or a VJP holds the array."""

    def test_dropped_interior_value_is_freed_before_backward(self):
        # add's VJP reads no value, so dropping y's Var frees y's array; the
        # graph still carries the gradient through y's node to the leaves.
        x = Var(np.array([1.0, 2.0]))
        w = Var(np.array([3.0, 5.0]))
        y = add(x, w)
        value = weakref.ref(y.value)
        z = scale(y, 2.0)
        del y
        assert value() is None
        backward(project_scalar(z, np.ones(2)))
        assert np.array_equal(x.grad, [2.0, 2.0])
        assert np.array_equal(w.grad, [2.0, 2.0])

    def test_captured_values_still_reach_the_gradient(self):
        # mul's VJP captured y's array, so dropping y's Var frees nothing
        # that backward reads: d(x^4)/dx = 4x^3.
        x = Var(np.array([1.0, 2.0]))
        y = mul(x, x)
        z = mul(y, y)
        del y
        backward(project_scalar(z, np.ones(2)))
        assert np.array_equal(x.grad, [4.0, 32.0])
