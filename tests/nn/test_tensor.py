"""Unit tests for the autodiff Tensor core: arithmetic, broadcasting, tape."""

import numpy as np
import pytest

from repro.nn import Tensor, tensor, no_grad

from .gradcheck import assert_grads_close


def _param(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestConstruction:
    def test_tensor_from_list(self):
        t = tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_tensor_passthrough(self):
        t = tensor([1.0])
        assert tensor(t) is t

    def test_int_input_promoted_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "f"

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(tensor([1.0, 2.0]))

    def test_item_on_scalar(self):
        assert tensor(3.5).item() == 3.5

    def test_len(self):
        assert len(tensor([1.0, 2.0, 3.0])) == 3


class TestArithmetic:
    def test_add_values(self):
        out = tensor([1.0, 2.0]) + tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_radd_scalar(self):
        out = 1.0 + tensor([1.0, 2.0])
        np.testing.assert_array_equal(out.data, [2.0, 3.0])

    def test_sub_and_rsub(self):
        np.testing.assert_array_equal((tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_array_equal((5.0 - tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        np.testing.assert_array_equal((tensor([2.0]) * 3.0).data, [6.0])
        np.testing.assert_array_equal((tensor([6.0]) / 3.0).data, [2.0])

    def test_rtruediv(self):
        np.testing.assert_allclose((1.0 / tensor([4.0])).data, [0.25])

    def test_pow(self):
        np.testing.assert_array_equal((tensor([3.0]) ** 2).data, [9.0])

    def test_matmul_values(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        b = tensor([[1.0], [1.0]])
        np.testing.assert_array_equal((a @ b).data, [[3.0], [7.0]])

    def test_neg(self):
        np.testing.assert_array_equal((-tensor([1.0, -2.0])).data, [-1.0, 2.0])


class TestBackward:
    def test_add_grad(self):
        a, b = _param([1.0, 2.0]), _param([3.0, 4.0])
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_mul_grad(self):
        a, b = _param([2.0]), _param([5.0])
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, [5.0])
        np.testing.assert_array_equal(b.grad, [2.0])

    def test_grad_accumulates_over_multiple_uses(self):
        a = _param([3.0])
        (a * a).sum().backward()  # d(a^2)/da = 2a
        np.testing.assert_array_equal(a.grad, [6.0])

    def test_broadcast_add_grad(self):
        a = _param(np.ones((2, 3)))
        b = _param(np.ones((3,)))
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])

    def test_broadcast_mul_keepdim_grad(self):
        a = _param(np.ones((4, 3)))
        b = _param(np.full((4, 1), 2.0))
        (a * b).sum().backward()
        np.testing.assert_array_equal(b.grad, np.full((4, 1), 3.0))

    def test_backward_on_nonscalar_raises(self):
        a = _param([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            (a * 2.0).backward()

    def test_backward_without_grad_flag_raises(self):
        with pytest.raises(ValueError):
            tensor([1.0]).backward()

    def test_zero_grad(self):
        a = _param([1.0])
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph_accumulation(self):
        # f = (a + a*a); both branches feed the same parent.
        a = _param([2.0])
        b = a * a
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, [5.0])  # 1 + 2a

    def test_matmul_gradcheck(self):
        rng = np.random.default_rng(0)
        a = _param(rng.standard_normal((3, 4)))
        b = _param(rng.standard_normal((4, 2)))
        assert_grads_close(lambda: (a @ b).sum(), [a, b])

    def test_div_gradcheck(self):
        a = _param([1.0, 2.0, 3.0])
        b = _param([4.0, 5.0, 6.0])
        assert_grads_close(lambda: (a / b).sum(), [a, b])

    def test_pow_gradcheck(self):
        a = _param([1.5, 2.5])
        assert_grads_close(lambda: (a**3).sum(), [a])


class TestShaping:
    def test_sum_axis(self):
        a = _param(np.arange(6.0).reshape(2, 3))
        out = a.sum(axis=0)
        np.testing.assert_array_equal(out.data, [3.0, 5.0, 7.0])
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))

    def test_sum_keepdims(self):
        a = _param(np.ones((2, 3)))
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean(self):
        a = _param([2.0, 4.0])
        out = a.mean()
        assert out.item() == 3.0
        out.backward()
        np.testing.assert_array_equal(a.grad, [0.5, 0.5])

    def test_mean_axis_gradcheck(self):
        a = _param(np.random.default_rng(1).standard_normal((3, 4)))
        assert_grads_close(lambda: a.mean(axis=1).sum(), [a])

    def test_reshape_roundtrip_grad(self):
        a = _param(np.arange(6.0))
        a.reshape(2, 3).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(6))

    def test_transpose(self):
        a = _param(np.arange(6.0).reshape(2, 3))
        out = a.T
        assert out.shape == (3, 2)
        out.sum().backward()
        assert a.grad.shape == (2, 3)

    def test_getitem_slice_grad(self):
        a = _param(np.arange(5.0))
        a[1:3].sum().backward()
        np.testing.assert_array_equal(a.grad, [0, 1, 1, 0, 0])

    def test_getitem_column_slice_gradcheck(self):
        a = _param(np.random.default_rng(2).standard_normal((3, 6)))
        assert_grads_close(lambda: (a[:, 2:4] * a[:, 0:2]).sum(), [a])


class TestNoGrad:
    def test_no_grad_blocks_tape(self):
        a = _param([1.0])
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        from repro.nn import is_grad_enabled

        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        from repro.nn import is_grad_enabled

        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        """Two threads whose enters and exits interleave (A in, B in, A out,
        B out) must leave every thread recording; a process-wide switch
        restores B's saved ``False`` last and disables the tape for good."""
        import threading

        from repro.nn import is_grad_enabled

        barrier = threading.Barrier(2, timeout=10.0)
        seen = {}

        def worker(name, enter_turn, exit_turn):
            for turn in range(4):
                if turn == enter_turn:
                    ctx = no_grad()
                    ctx.__enter__()
                    seen[name, "inside"] = is_grad_enabled()
                if turn == exit_turn:
                    ctx.__exit__(None, None, None)
                barrier.wait()
            seen[name, "after"] = is_grad_enabled()

        threads = [
            threading.Thread(target=worker, args=("a", 0, 2)),
            threading.Thread(target=worker, args=("b", 1, 3)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert seen == {
            ("a", "inside"): False, ("b", "inside"): False,
            ("a", "after"): True, ("b", "after"): True,
        }
        assert is_grad_enabled()
        assert (_param([1.0]) * 2.0).requires_grad
