"""Exact-mode stacking: K models in one kernel call == K solo kernels, bitwise.

``MultiSGDUDA(gradient_mode="exact")`` is the training service's fused
aggregate, and its contract is stronger than the multi-model suite's
1e-12: every model's weights must equal its standalone :class:`SGDUDA`
run bit for bit (``atol=0``). The stacked exact kernel keeps the two
GEMV contractions per model and runs the elementwise work once on the
``(K, n)`` / ``(K, d)`` arrays; this suite pins that the stacking changes
no bit — for every built-in margin loss, odd and even segment lengths,
heterogeneous lambdas, mixed L2-ball / identity projections — and that
mixes the kernel cannot serve take the per-model fallback with the same
result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.optim.losses import (
    HingeLoss,
    HuberSVMLoss,
    LeastSquaresLoss,
    LogisticLoss,
    Loss,
)
from repro.optim.projection import (
    BoxProjection,
    IdentityProjection,
    L2BallProjection,
    exact_rows_projector,
)
from repro.optim.schedules import ConstantSchedule, InverseSqrtTSchedule
from repro.rdbms.uda import MultiSGDUDA, SGDUDA

#: Every built-in margin loss family.
MARGIN_LOSSES = [
    pytest.param(LogisticLoss(), id="logistic"),
    pytest.param(LogisticLoss(tight_smoothness=True), id="logistic-tight"),
    pytest.param(HuberSVMLoss(smoothing=0.1), id="huber"),
    pytest.param(HuberSVMLoss(smoothing=0.5), id="huber-wide"),
    pytest.param(LeastSquaresLoss(margin_bound=2.0), id="least-squares"),
    pytest.param(HingeLoss(), id="hinge"),
]

LAMBDAS = st.sampled_from([0.0, 1e-4, 0.01, 0.05, 0.7])


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """atol=0 and sign-of-zero exact: the byte images agree."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def masked_logistic_derivative(z: np.ndarray) -> np.ndarray:
    """The two-branch masked form LogisticLoss used before going mask-free."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = -np.exp(-z[pos]) / (1.0 + np.exp(-z[pos]))
    out[~pos] = -1.0 / (1.0 + np.exp(z[~pos]))
    return out


class ScalarOnlyAbsLoss(Loss):
    """A loss with only the scalar pair: never stackable."""

    def value(self, w, x, y):
        margin = 1.0 - float(y) * float(np.dot(w, x))
        return float(np.sqrt(1.0 + margin**2) - 1.0)

    def gradient(self, w, x, y):
        margin = 1.0 - float(y) * float(np.dot(w, x))
        coef = -float(y) * margin / float(np.sqrt(1.0 + margin**2))
        return coef * np.asarray(x, dtype=np.float64) + self.regularization * w


def random_problem(seed: int, m: int, d: int):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    y = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    cuts = np.sort(rng.choice(np.arange(1, m), size=min(m - 1, 3), replace=False))
    return X, y, np.split(np.arange(m), cuts)


def run_epochs(uda, state_kw: dict, X, y, chunks, passes: int = 2):
    """Drive ``passes`` epochs through ``transition_batch`` chunk by chunk,
    re-initializing with the advanced step offset as ``run_sgd`` does."""
    state = uda.initialize(**state_kw)
    for epoch in range(passes):
        for chunk in chunks:
            state = uda.transition_batch(state, X[chunk], y[chunk])
        model = np.array(uda.terminate(state), copy=True)
        if epoch + 1 < passes:
            key = "models" if isinstance(uda, MultiSGDUDA) else "model"
            state = uda.initialize(
                **{key: model}, global_step_offset=state.next_step_index - 1
            )
    return model


def assert_fused_equals_solo(losses, schedules, projections, batch_size, seed, m, d):
    X, y, chunks = random_problem(seed, m, d)
    uda = MultiSGDUDA(
        losses, schedules, batch_size, projections, gradient_mode="exact"
    )
    fused = run_epochs(uda, {"dimension": d}, X, y, chunks)
    for k in range(len(losses)):
        solo = SGDUDA(losses[k], schedules[k], batch_size, projections[k])
        alone = run_epochs(solo, {"dimension": d}, X, y, chunks)
        assert bits_equal(fused[k], alone), f"model {k} differs from its solo run"
    return uda


class TestStackedKernel:
    @pytest.mark.parametrize("loss", MARGIN_LOSSES)
    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(1, 40),
        n=st.integers(1, 81),
        d=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.01, 1.0, 30.0]),
        data=st.data(),
    )
    def test_rows_equal_per_model_batch_gradient(self, loss, K, n, d, seed, scale, data):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        W = rng.normal(size=(K, d)) * scale
        lam = np.array(data.draw(st.lists(LAMBDAS, min_size=K, max_size=K)))
        stacked = loss.batch_gradient_exact_multi(W, X, y, lam)
        for k in range(K):
            solo = loss.with_regularization(float(lam[k])).batch_gradient(
                W[k].copy(), X, y
            )
            assert bits_equal(stacked[k], solo), f"row {k} of K={K}, n={n}, d={d}"

    def test_default_regularization_is_the_loss_lambda(self):
        loss = LogisticLoss(regularization=0.3)
        rng = np.random.default_rng(3)
        X, y, W = rng.normal(size=(7, 4)), np.ones(7), rng.normal(size=(3, 4))
        stacked = loss.batch_gradient_exact_multi(W, X, y)
        for k in range(3):
            assert bits_equal(stacked[k], loss.batch_gradient(W[k], X, y))


class TestMaskFreeLogisticDerivative:
    @settings(max_examples=300, deadline=None)
    @given(
        z=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
            elements=st.one_of(
                st.floats(allow_nan=False),
                st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 745.2, -745.2]),
            ),
        )
    )
    def test_equals_the_masked_formula(self, z):
        assert bits_equal(LogisticLoss().margin_derivative(z), masked_logistic_derivative(z))

    def test_signed_zeros_and_infinities(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf])
        out = LogisticLoss().margin_derivative(z)
        assert bits_equal(out, masked_logistic_derivative(z))
        assert bits_equal(out, np.array([-0.5, -0.5, -0.0, -1.0]))


def mixed_projections(rng, K):
    return [
        L2BallProjection(float(rng.choice([0.05, 0.5, 5.0])))
        if rng.random() < 0.6
        else IdentityProjection()
        for _ in range(K)
    ]


def mixed_schedules(rng, K):
    return [
        ConstantSchedule(float(rng.choice([0.1, 1.0, 4.0])))
        if rng.random() < 0.5
        else InverseSqrtTSchedule(0.5)
        for _ in range(K)
    ]


FUSED_SHAPES = dict(
    K=st.integers(1, 9),
    d=st.integers(1, 12),
    m=st.integers(4, 70),
    batch_size=st.integers(1, 17),
    seed=st.integers(0, 2**32 - 1),
)


class TestFusedExactUDA:
    @pytest.mark.parametrize("loss", MARGIN_LOSSES)
    @settings(max_examples=15, deadline=None)
    @given(**FUSED_SHAPES)
    def test_stacked_path_equals_solo_runs(self, loss, K, d, m, batch_size, seed):
        rng = np.random.default_rng(seed)
        losses = [loss.with_regularization(float(rng.choice([0.0, 0.01, 0.3]))) for _ in range(K)]
        uda = assert_fused_equals_solo(
            losses, mixed_schedules(rng, K), mixed_projections(rng, K), batch_size, seed, m, d
        )
        assert uda._stacked is not None

    @settings(max_examples=25, deadline=None)
    @given(**FUSED_SHAPES)
    def test_mixed_loss_families_fall_back_and_equal_solo_runs(self, K, d, m, batch_size, seed):
        rng = np.random.default_rng(seed)
        families = [LogisticLoss(), HuberSVMLoss(0.2), LeastSquaresLoss()]
        losses = [families[k % 3].with_regularization(0.01 * k) for k in range(K + 1)]
        uda = assert_fused_equals_solo(
            losses,
            mixed_schedules(rng, K + 1),
            mixed_projections(rng, K + 1),
            batch_size,
            seed,
            m,
            d,
        )
        assert uda._stacked is None

    @settings(max_examples=25, deadline=None)
    @given(**FUSED_SHAPES)
    def test_box_projection_mix_falls_back_and_equals_solo_runs(self, K, d, m, batch_size, seed):
        rng = np.random.default_rng(seed)
        losses = [LogisticLoss(regularization=0.01 * k) for k in range(K)]
        projections = mixed_projections(rng, K) + [BoxProjection(-0.1, 0.1)]
        uda = assert_fused_equals_solo(
            losses + [LogisticLoss()],
            mixed_schedules(rng, K + 1),
            projections,
            batch_size,
            seed,
            m,
            d,
        )
        assert uda._stacked is None

    @settings(max_examples=15, deadline=None)
    @given(**FUSED_SHAPES)
    def test_scalar_only_loss_falls_back_and_equals_solo_runs(self, K, d, m, batch_size, seed):
        rng = np.random.default_rng(seed)
        losses = [ScalarOnlyAbsLoss(regularization=0.01 * k) for k in range(K)]
        uda = assert_fused_equals_solo(
            losses, mixed_schedules(rng, K), mixed_projections(rng, K), batch_size, seed, m, d
        )
        assert uda._stacked is None

    def test_overridden_batch_gradient_falls_back(self):
        class PlainLogistic(LogisticLoss):
            def batch_gradient(self, w, X, y):
                return super().batch_gradient(w, X, y)

        uda = MultiSGDUDA(
            [PlainLogistic(), PlainLogistic(0.1)],
            [ConstantSchedule(0.1)] * 2,
            gradient_mode="exact",
        )
        assert uda._stacked is None

    def test_transparent_wrapper_keeps_the_stacked_path(self, monkeypatch):
        original = LogisticLoss.batch_gradient

        def traced(*args, **kwargs):
            return original(*args, **kwargs)

        traced.__wrapped__ = original
        monkeypatch.setattr(LogisticLoss, "batch_gradient", traced, raising=False)
        uda = MultiSGDUDA(
            [LogisticLoss(), LogisticLoss(0.1)],
            [ConstantSchedule(0.1)] * 2,
            gradient_mode="exact",
        )
        assert uda._stacked is not None

    def test_grouped_mode_never_stacks_exactly(self):
        uda = MultiSGDUDA([LogisticLoss()] * 3, [ConstantSchedule(0.1)] * 3)
        assert uda._stacked is None


class TestExactRowsProjector:
    @settings(max_examples=200, deadline=None)
    @given(
        K=st.integers(1, 20),
        d=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.01, 1.0, 100.0, 1e200]),
    )
    def test_rows_equal_each_projection_object(self, K, d, seed, scale):
        rng = np.random.default_rng(seed)
        projections = mixed_projections(rng, K)
        W = rng.normal(size=(K, d)) * scale
        if rng.random() < 0.3:
            W[rng.integers(K), rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
        with np.errstate(all="ignore"):  # 1e200 rows overflow their norm
            expected = [projections[k](W[k].copy()) for k in range(K)]
            projected = exact_rows_projector(projections)(W.copy())
        for k in range(K):
            assert bits_equal(projected[k], expected[k])

    def test_other_projections_do_not_compile(self):
        class Ball(L2BallProjection):
            pass

        assert exact_rows_projector([L2BallProjection(1.0), BoxProjection(0, 1)]) is None
        assert exact_rows_projector([Ball(1.0)]) is None
        assert exact_rows_projector([IdentityProjection()]) is not None
