"""Tests for the autograd engine: every op is checked against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import composed_losses as composed
from repro.autograd import Tensor, functional as F, no_grad, tensor


def finite_difference_check(fn, *shapes, seed=0, tol=1e-4, frozen=None):
    """Compare analytic gradients of ``fn`` (scalar output) with central differences.

    ``frozen``, when given, maps the base input arrays to the function that is
    differenced instead of ``fn``: the one whose gradient ``fn`` computes when
    it treats part of itself as a constant (the focal weights).
    """
    rng = np.random.default_rng(seed)
    inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    out = fn(*inputs)
    out.backward()
    reference = fn if frozen is None else frozen(*[x.data.copy() for x in inputs])
    eps = 1e-6
    for x in inputs:
        numeric = np.zeros_like(x.data)
        it = np.nditer(x.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = x.data[idx]
            x.data[idx] = original + eps
            plus = reference(*inputs).item()
            x.data[idx] = original - eps
            minus = reference(*inputs).item()
            x.data[idx] = original
            numeric[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        assert np.max(np.abs(numeric - x.grad)) < tol


# duplicate and negative rows: -1 aliases row 5 of a 6-row entity table
_POSITIVES = np.array([[0, 1, 2], [0, 1, 2], [-1, 0, 3], [5, -3, 4]])
_NEGATIVES = np.array([[0, 1, 4], [0, 1, 5], [-1, 0, 1], [5, 2, 2]])


def _focal_with_frozen_weights(a0, b0, gamma=2.0):
    """The focal loss with ``(1 - p)^gamma`` fixed at ``(a0, b0)``."""
    stacked = np.stack([(a0 * a0).sum(axis=1), (b0 * b0).sum(axis=1)], axis=1)
    p = np.exp(stacked[:, 0] - np.logaddexp(stacked[:, 0], stacked[:, 1]))
    weights = Tensor((1.0 - p) ** gamma)

    def loss(a, b):
        scores = [(x * x).sum(axis=1).reshape(-1, 1) for x in (a, b)]
        log_probs = composed.log_softmax(F.concatenate(scores, axis=1), axis=1)
        return -(weights * log_probs[:, 0]).mean()

    return loss


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
    "softmax": (lambda a: (composed.softmax(a, axis=1)[:, 0]).sum(), ((3, 4),)),
    "log_softmax": (lambda a: composed.log_softmax(a, axis=1)[:, 1].mean(), ((3, 4),)),
    "margin_loss": (
        lambda a, b: F.margin_ranking_loss(a.norm(axis=1), b.norm(axis=1), 0.5),
        ((4, 3), (4, 3)),
    ),
    "translation_margin_loss": (
        lambda e, r: F.translation_margin_loss(e, r, _POSITIVES, _NEGATIVES, 1.0),
        ((6, 3), (4, 3)),
    ),
    "pairwise_softmax_loss": (
        lambda a, b: F.pairwise_softmax_loss((a * a).sum(axis=1), (b * b).sum(axis=1)),
        ((4, 3), (4, 3)),
    ),
    "focal_pairwise_softmax_loss": (
        lambda a, b: F.focal_pairwise_softmax_loss((a * a).sum(axis=1), (b * b).sum(axis=1)),
        ((4, 3), (4, 3)),
        _focal_with_frozen_weights,
    ),
    "soft_label_loss": (
        lambda a: F.soft_label_loss((a * a).sum(axis=1), np.array([0.5, 0.9, 0.1])),
        ((3, 2),),
    ),
}


@pytest.mark.parametrize("name", sorted(GRADIENT_CASES))
def test_gradient_matches_finite_differences(name):
    fn, shapes, *frozen = GRADIENT_CASES[name]
    finite_difference_check(fn, *shapes, frozen=frozen[0] if frozen else None)


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
        p = composed.softmax(x, axis=1)
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


class TestFusedNodesMatchComposition:
    """Each fused loss node against its composed graph, byte for byte.

    Both sides run on fresh leaves holding the same data (and, where a case
    says so, the same gradient already accumulated); the forward value and
    every leaf's gradient must have identical bytes.
    """

    @staticmethod
    def _run(build, leaves, seed=None):
        tensors = []
        for data, requires_grad, held in leaves:
            t = Tensor(data.copy(), requires_grad=requires_grad)
            if held is not None:
                t.grad = held.copy()
            tensors.append(t)
        out = build(*tensors)
        out.backward(seed)
        grads = [None if t.grad is None else t.grad.tobytes() for t in tensors]
        return out.data.tobytes(), grads

    def _assert_same(self, fused, composed_form, leaves, seed=None):
        fused_out, fused_grads = self._run(fused, leaves, seed)
        composed_out, composed_grads = self._run(composed_form, leaves, seed)
        assert fused_out == composed_out
        assert fused_grads == composed_grads
        assert any(g is not None for g in fused_grads)

    @pytest.mark.parametrize("relations_trainable", [True, False])
    @pytest.mark.parametrize("margin", [0.3, 5.0])
    def test_translation_margin_loss(self, relations_trainable, margin):
        rng = np.random.default_rng(1)
        leaves = [
            # a leaf that already holds a gradient from an earlier backward
            (rng.normal(size=(6, 5)), True, rng.normal(size=(6, 5))),
            (rng.normal(size=(4, 5)), relations_trainable, None),
        ]
        self._assert_same(
            lambda e, r: F.translation_margin_loss(e, r, _POSITIVES, _NEGATIVES, margin),
            lambda e, r: composed.translation_margin_loss(e, r, _POSITIVES, _NEGATIVES, margin),
            leaves,
        )

    @pytest.mark.parametrize("b_trainable", [True, False])
    def test_cosine_similarity_rows(self, b_trainable):
        rng = np.random.default_rng(2)
        rows = np.array([3, -1, 0, 3, 2])  # duplicate and negative gathers
        leaves = [
            (rng.normal(size=(4, 6)), True, rng.normal(size=(4, 6))),
            (rng.normal(size=(6, 6)), True, None),
            # ``b_trainable=False`` is the constant mean-embedding side
            (rng.normal(size=(5, 6)), b_trainable, None),
        ]

        def build(cosine):
            return lambda table, mapping, b: cosine(table.gather_rows(rows) @ mapping, b)

        seed = rng.normal(size=5)
        self._assert_same(
            build(F.cosine_similarity_rows), build(composed.cosine_similarity_rows), leaves, seed
        )

    @pytest.mark.parametrize("gamma", [None, 0.0, 2.0])
    def test_pairwise_softmax_losses(self, gamma):
        rng = np.random.default_rng(3)
        pos_rows, neg_rows = np.array([0, 2, -1, 2]), np.array([1, 1, 0, -2])
        leaves = [
            (rng.normal(size=(4, 3)), True, rng.normal(size=(4, 3))),
            (rng.normal(size=(4, 3)), True, None),
        ]

        def build(plain, focal):
            def loss(left, right):
                pos = composed.cosine_similarity_rows(left.gather_rows(pos_rows), right)
                neg = composed.cosine_similarity_rows(left.gather_rows(neg_rows), right)
                return plain(pos, neg) if gamma is None else focal(pos, neg, gamma)

            return loss

        self._assert_same(
            build(F.pairwise_softmax_loss, F.focal_pairwise_softmax_loss),
            build(composed.pairwise_softmax_loss, composed.focal_pairwise_softmax_loss),
            leaves,
        )

    def test_softmax_loss_with_a_constant_side(self):
        rng = np.random.default_rng(4)
        leaves = [(rng.normal(size=5), True, None), (rng.normal(size=5), False, None)]
        self._assert_same(F.pairwise_softmax_loss, composed.pairwise_softmax_loss, leaves)
