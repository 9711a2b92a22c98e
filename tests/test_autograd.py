"""Tests for the autograd engine: every op is checked against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, functional as F, no_grad, tensor


def finite_difference_check(fn, *shapes, seed=0, tol=1e-4):
    """Compare analytic gradients of ``fn`` (scalar output) with central differences."""
    rng = np.random.default_rng(seed)
    inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    out = fn(*inputs)
    out.backward()
    eps = 1e-6
    for x in inputs:
        numeric = np.zeros_like(x.data)
        it = np.nditer(x.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = x.data[idx]
            x.data[idx] = original + eps
            plus = fn(*inputs).item()
            x.data[idx] = original - eps
            minus = fn(*inputs).item()
            x.data[idx] = original
            numeric[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        assert np.max(np.abs(numeric - x.grad)) < tol


GRADIENT_CASES = {
    "add": (lambda a, b: (a + b).sum(), ((3, 4), (3, 4))),
    "broadcast_add": (lambda a, b: (a + b).sum(), ((3, 4), (4,))),
    "sub": (lambda a, b: (a - b * 2.0).sum(), ((2, 3), (2, 3))),
    "mul": (lambda a, b: (a * b).sum(), ((3, 3), (3, 3))),
    "div": (lambda a, b: (a / (b * b + 1.0)).sum(), ((2, 2), (2, 2))),
    "pow": (lambda a: (a**3).sum(), ((4,),)),
    "matmul": (lambda a, b: (a @ b).sum(), ((3, 4), (4, 2))),
    "matvec": (lambda a, b: (a @ b).sum(), ((3, 4), (4,))),
    "vecmat": (lambda a, b: (a @ b).sum(), ((4,), (4, 2))),
    "sum_axis": (lambda a: (a.sum(axis=1) ** 2).sum(), ((3, 4),)),
    "mean": (lambda a: a.mean(), ((5, 2),)),
    "norm": (lambda a: a.norm(axis=1).sum(), ((4, 3),)),
    "max_axis": (lambda a: a.max(axis=1).sum(), ((4, 3),)),
    "exp": (lambda a: a.exp().sum(), ((3, 3),)),
    "log": (lambda a: (a * a + 1.0).log().sum(), ((3, 3),)),
    "tanh": (lambda a: a.tanh().sum(), ((3, 3),)),
    "abs": (lambda a: (a.abs() + 0.1).sum(), ((3, 3),)),
    "clamp_min": (lambda a: a.clamp_min(0.2).sum(), ((4, 2),)),
    "reshape": (lambda a: (a.reshape(6) ** 2).sum(), ((2, 3),)),
    "transpose": (lambda a, b: (a.T @ b).sum(), ((3, 2), (3, 2))),
    "getitem": (lambda a: (a[:, 0] * a[:, 1]).sum(), ((4, 3),)),
    "gather_rows": (lambda a: a.gather_rows(np.array([0, 2, 2, 1])).sum(), ((3, 4),)),
    "scatter_rows": (lambda a: F.scatter_rows(a, np.array([0, 1, 0]), 2).norm(), ((3, 4),)),
    "concatenate": (lambda a, b: (F.concatenate([a, b], axis=1) ** 2).sum(), ((2, 3), (2, 2))),
    "maximum": (lambda a, b: F.maximum(a, b * 0.5).sum(), ((4, 2), (4, 2))),
    "cosine_rows": (lambda a, b: F.cosine_similarity_rows(a, b).sum(), ((4, 3), (4, 3))),
    "softmax": (lambda a: (F.softmax(a, axis=1)[:, 0]).sum(), ((3, 4),)),
    "log_softmax": (lambda a: F.log_softmax(a, axis=1)[:, 1].mean(), ((3, 4),)),
    "margin_loss": (
        lambda a, b: F.margin_ranking_loss(a.norm(axis=1), b.norm(axis=1), 0.5),
        ((4, 3), (4, 3)),
    ),
    "pairwise_softmax_loss": (
        lambda a, b: F.pairwise_softmax_loss((a * a).sum(axis=1), (b * b).sum(axis=1)),
        ((4, 3), (4, 3)),
    ),
    "soft_label_loss": (
        lambda a: F.soft_label_loss((a * a).sum(axis=1), np.array([0.5, 0.9, 0.1])),
        ((3, 2),),
    ),
}


@pytest.mark.parametrize("name", sorted(GRADIENT_CASES))
def test_gradient_matches_finite_differences(name):
    fn, shapes = GRADIENT_CASES[name]
    finite_difference_check(fn, *shapes)


class TestTupleAxisReductions:
    """Regression tests for tuple axes: ``mean(axis=(0, 1))`` used to raise
    ``TypeError`` because the divisor read ``shape[axis]`` with a tuple."""

    def test_mean_tuple_axis_gradient(self):
        finite_difference_check(lambda a: a.mean(axis=(0, 1)), (3, 4))

    def test_mean_tuple_axis_gradient_3d(self):
        finite_difference_check(lambda a: (a.mean(axis=(0, 2)) ** 2).sum(), (2, 3, 4))

    def test_mean_tuple_axis_values_match_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(2, 3, 4))
        out = Tensor(data).mean(axis=(0, 1))
        assert np.allclose(out.numpy(), data.mean(axis=(0, 1)))
        out = Tensor(data).mean(axis=(1, 2), keepdims=True)
        assert np.allclose(out.numpy(), data.mean(axis=(1, 2), keepdims=True))

    def test_mean_negative_tuple_axis(self):
        data = np.arange(24, dtype=float).reshape(2, 3, 4)
        out = Tensor(data).mean(axis=(-2, -1))
        assert np.allclose(out.numpy(), data.mean(axis=(-2, -1)))

    def test_sum_tuple_axis_parity(self):
        finite_difference_check(lambda a: (a.sum(axis=(0, 1)) * 2.0), (3, 4))
        data = np.arange(12, dtype=float).reshape(3, 4)
        assert np.allclose(Tensor(data).sum(axis=(0, 1)).numpy(), data.sum(axis=(0, 1)))

    def test_max_tuple_axis_parity(self):
        finite_difference_check(lambda a: a.max(axis=(0, 1)), (3, 4), seed=3)
        data = np.arange(24, dtype=float).reshape(2, 3, 4)
        assert np.allclose(Tensor(data).max(axis=(0, 2)).numpy(), data.max(axis=(0, 2)))

    def test_gather_rows_negative_and_duplicate_indices(self):
        # -1 aliases the last row: the scatter-add backward must accumulate
        # both contributions, matching np.add.at semantics
        t = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        out = t.gather_rows(np.array([-1, 3, 0]))
        out.sum().backward()
        expected = np.zeros((4, 2))
        expected[3] = 2.0
        expected[0] = 1.0
        assert np.allclose(t.grad, expected)

    def test_getitem_integer_array_gradient(self):
        # fancy indexing with duplicates must accumulate like np.add.at
        finite_difference_check(lambda a: (a[np.array([0, 2, 2, -1])] ** 2).sum(), (4, 3))
        finite_difference_check(lambda a: (a[[1, 1, 0]] * 2.0).sum(), (3,))

    def test_getitem_integer_array_matches_add_at_bitwise(self):
        # every row scatter (gather_rows backward for any index shape, and the
        # scatter_rows forward) must be byte-identical to np.add.at
        rng = np.random.default_rng(0)
        cases = [
            ((6, 3), np.array([5, 0, 2, 2, -1, 0, 5, 2])),  # duplicates + negative
            ((6,), np.array([1, -6, 0, 5, 1, -1])),  # 1-D table
            ((6, 3), np.array([], dtype=np.int64)),  # empty indices
            ((6, 3), np.array([[0, 5, -1], [2, 2, 0]])),  # 2-D index -> 3-D row block
            ((5, 2, 3), np.array([4, -1, 0, 4, 2])),  # 3-D table rows
            ((40, 8), rng.integers(-40, 40, size=300)),
        ]
        for table_shape, index in cases:
            data = rng.normal(size=table_shape)
            upstream = rng.normal(size=index.shape + table_shape[1:])
            reference = np.zeros_like(data)
            np.add.at(reference, index, upstream)

            fast = Tensor(data, requires_grad=True)
            out = fast[index] if index.ndim == 1 else fast.gather_rows(index)
            out.backward(upstream)
            assert fast.grad.dtype == reference.dtype and fast.grad.shape == reference.shape
            assert fast.grad.tobytes() == reference.tobytes(), (table_shape, index)

            if len(table_shape) == 2 and index.ndim == 1:
                scattered = F.scatter_rows(Tensor(upstream), index, table_shape[0])
                assert scattered.data.tobytes() == reference.tobytes(), (table_shape, index)

    def test_scatter_rows_rejects_out_of_range_rows(self):
        with pytest.raises(IndexError):
            F.scatter_rows(Tensor(np.ones((2, 3))), np.array([0, 3]), 3)

    def test_getitem_tuple_and_mask_still_supported(self):
        finite_difference_check(lambda a: (a[:, 1] ** 2).sum(), (4, 3))
        t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        mask = np.array([True, False, True])
        t[mask].sum().backward()
        assert np.allclose(t.grad, np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]))


class TestTensorBasics:
    def test_tensor_constructor(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        assert t.requires_grad and t.shape == (2,)

    def test_detach_cuts_graph(self):
        t = tensor([1.0], requires_grad=True)
        assert not t.detach().requires_grad

    def test_item_requires_scalar(self):
        assert tensor(3.5).item() == pytest.approx(3.5)

    def test_backward_on_non_scalar_requires_grad_argument(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            tensor([1.0]).backward()

    def test_no_grad_disables_graph(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            out = (t * 3).sum()
        assert not out.requires_grad

    def test_grad_accumulates_over_multiple_backward_paths(self):
        t = tensor([2.0], requires_grad=True)
        out = (t * 3) + (t * 4)
        out.sum().backward()
        assert t.grad[0] == pytest.approx(7.0)

    def test_zero_grad(self):
        t = tensor([2.0], requires_grad=True)
        (t * t).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            tensor([1.0]) ** tensor([2.0])

    def test_rsub_and_rdiv(self):
        t = tensor([2.0], requires_grad=True)
        out = (4.0 - t) + (8.0 / t)
        out.sum().backward()
        assert out.data[0] == pytest.approx(6.0)
        assert t.grad[0] == pytest.approx(-1.0 - 8.0 / 4.0)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_addition_is_commutative(self, values):
        a = tensor(values)
        b = tensor(list(reversed(values)))
        assert np.allclose((a + b).data, (b + a).data)

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_softmax_output_rows_sum_to_one(self, values):
        x = tensor([values, values])
        p = F.softmax(x, axis=1)
        assert np.allclose(p.data.sum(axis=1), 1.0)

    @given(st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_scatter_then_sum_preserves_mass(self, n, d):
        rng = np.random.default_rng(0)
        source = tensor(rng.normal(size=(n, d)))
        indices = rng.integers(0, 3, size=n)
        scattered = F.scatter_rows(source, indices, 3)
        assert np.allclose(scattered.data.sum(axis=0), source.data.sum(axis=0))


class TestFocalLoss:
    def test_focal_loss_downweights_easy_examples(self):
        easy_pos = tensor([5.0, 5.0])
        easy_neg = tensor([-5.0, -5.0])
        hard_pos = tensor([0.0, 0.0])
        hard_neg = tensor([0.0, 0.0])
        easy = F.focal_pairwise_softmax_loss(easy_pos, easy_neg, gamma=2.0).item()
        hard = F.focal_pairwise_softmax_loss(hard_pos, hard_neg, gamma=2.0).item()
        assert hard > easy

    def test_focal_loss_gamma_zero_matches_plain_softmax_loss(self):
        pos = tensor([1.0, 0.3])
        neg = tensor([0.2, 0.8])
        focal = F.focal_pairwise_softmax_loss(pos, neg, gamma=0.0).item()
        plain = F.pairwise_softmax_loss(pos, neg).item()
        assert focal == pytest.approx(plain, rel=1e-6)
