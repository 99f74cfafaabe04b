import numpy as np
import pytest

from fade.augmentation import (
    AugmentationContext,
    augment,
    compute_radius,
    derive_rng,
    margin,
    sample_unit_vector,
    select_augmentation,
)


class TestComputeRadius:
    def test_symmetric_pair(self):
        assert compute_radius(np.array([[0.0, 0.0], [2.0, 0.0]])) == 1.0

    def test_single_rep_is_zero(self):
        assert compute_radius(np.array([[3.0, -1.0]])) == 0.0

    def test_matches_two_pass_brute_force(self):
        rng = np.random.default_rng(0)
        reps = [rng.normal(size=8) for _ in range(10)]
        centroid = sum(reps) / 10
        expected = sum(np.linalg.norm(centroid - r) for r in reps) / 10
        assert abs(compute_radius(np.vstack(reps)) - expected) < 1e-12

    def test_rows_of_a_matrix_are_the_representations(self):
        # as rows: centroid (2, 0), distances 2, 0, 2; as columns it would be sqrt(5)
        mat = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        assert compute_radius(mat) == pytest.approx(4.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_radius(np.zeros((0, 3)))


class TestUnitVector:
    def test_dim_one_is_plus_or_minus_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = sample_unit_vector(1, rng)
            assert v[0, 0] in (1.0, -1.0)

    @pytest.mark.parametrize("dim", [2, 5, 64])
    def test_unit_norm(self, dim):
        rng = np.random.default_rng(2)
        for _ in range(10):
            assert abs(np.linalg.norm(sample_unit_vector(dim, rng)) - 1.0) < 1e-12

    def test_empirical_mean_near_origin(self):
        rng = np.random.default_rng(3)
        total = np.zeros(3)
        for _ in range(10_000):
            total += sample_unit_vector(3, rng)[0]
        assert np.all(np.abs(total / 10_000) < 0.05)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            sample_unit_vector(0, np.random.default_rng(0))


class TestSelection:
    def linear_classifier(self, v):
        # z = (r1, -r1): decision boundary r1 = 0
        return np.array([[v[0, 0], -v[0, 0]]])

    def test_zero_radius_identity(self):
        ctx = AugmentationContext(radius=0.0, num_candidates=4, rng_seed=0)
        rep = np.array([[1.0, 0.5]])
        out = augment(rep, ctx, self.linear_classifier, label=0)
        assert np.array_equal(out, rep)
        assert out is not rep

    def test_hand_computed_margins_pick_smaller(self):
        rep = np.array([[1.0, 0.0]])
        directions = [np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])]
        chosen, fallback, m = select_augmentation(
            rep, 0.5, directions, self.linear_classifier, label=0
        )
        # candidates (1.5, 0) margin 3.0 and (0.5, 0) margin 1.0 -> pick (0.5, 0)
        assert not fallback
        assert np.allclose(chosen, [[0.5, 0.0]])
        assert m == pytest.approx(1.0)

    def test_fallback_when_no_candidate_keeps_label(self):
        rep = np.array([[0.1, 0.0]])
        directions = [np.array([[-1.0, 0.0]])]  # flips the label at radius 0.5
        chosen, fallback, m = select_augmentation(
            rep, 0.5, directions, self.linear_classifier, label=0
        )
        assert fallback and m is None
        assert np.array_equal(chosen, rep)

    def test_random_classifier_selection_is_optimal(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(8, 4))
        b = rng.normal(size=(1, 4))
        classify = lambda v: v @ w + b

        ctx = AugmentationContext(radius=0.7, num_candidates=16, rng_seed=123)
        for trial in range(50):
            rep = rng.normal(size=(1, 8))
            label = int(np.argmax(classify(rep)))  # ensure label-preserving exists at rep
            out = augment(rep, ctx, classify, label, sample_id=f"s{trial}", epoch=3)

            offset = out - rep
            replay = derive_rng(123, f"s{trial}", 3)
            directions = [sample_unit_vector(8, replay) for _ in range(16)]
            kept = [
                (margin(classify(rep + 0.7 * d), label), d)
                for d in directions
                if int(np.argmax(classify(rep + 0.7 * d))) == label
            ]
            if np.allclose(offset, 0.0):
                assert not kept  # fallback only when nothing survives
                continue
            assert abs(np.linalg.norm(offset) - 0.7) < 1e-9
            chosen_margin = margin(classify(out), label)
            assert all(chosen_margin <= m + 1e-12 for m, _ in kept)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(5, 3))
        classify = lambda v: v @ w
        ctx = AugmentationContext(radius=0.4, num_candidates=8, rng_seed=9)
        rep = rng.normal(size=(1, 5))
        a = augment(rep, ctx, classify, 0, sample_id="x", epoch=2)
        b = augment(rep, ctx, classify, 0, sample_id="x", epoch=2)
        assert np.array_equal(a, b)

    def test_invalid_context_rejected(self):
        with pytest.raises(ValueError):
            AugmentationContext(radius=-1.0).validate()
        with pytest.raises(ValueError):
            AugmentationContext(radius=1.0, num_candidates=0).validate()


def test_margin_definition():
    assert margin(np.array([2.0, -1.0, 1.5]), 0) == pytest.approx(0.5)
    assert margin(np.array([2.0, -1.0, 1.5]), 1) == pytest.approx(-3.0)
