"""UAR, phi and Pearson against brute-force oracles, plus the pair table."""

import numpy as np
import pytest

from aftx.errors import (
    LabelError,
    NonFinite,
    ShapeError,
    UndefinedCorrelation,
    UndefinedRecall,
)
from aftx.metrics import (
    ConfusionMatrix,
    CorrelationEntry,
    pearson,
    phi,
    trait_pair_table,
    uar,
)

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def uar_oracle(y_true, y_pred):
    """Recall per class by explicit sample loops, then the plain mean."""
    recalls = []
    for cls in (0, 1):
        hits = total = 0
        for t, p in zip(y_true, y_pred):
            if t == cls:
                total += 1
                if p == cls:
                    hits += 1
        recalls.append(hits / total)
    return sum(recalls) / 2.0


def pearson_oracle(x, y):
    """Textbook two-pass formula."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / (vx ** 0.5 * vy ** 0.5)


def cm(counts):
    return ConfusionMatrix(counts=np.asarray(counts, dtype=np.int64))


class TestUar:
    def test_perfect(self):
        assert uar(cm([[10, 0], [0, 10]])) == 1.0

    def test_hand_case(self):
        assert uar(cm([[8, 2], [3, 7]])) == pytest.approx(0.75)

    def test_predict_all_zero(self):
        assert uar(cm([[17, 0], [5, 0]])) == pytest.approx(0.5)

    def test_transpose_symmetric(self):
        for a, b in [(8, 2), (5, 5), (1, 9)]:
            assert uar(cm([[a, b], [b, a]])) == pytest.approx(a / (a + b))

    def test_duplication_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y_true = rng.integers(0, 2, 40)
            y_pred = rng.integers(0, 2, 40)
            if len(set(y_true.tolist())) < 2:
                continue
            base = uar(ConfusionMatrix.from_predictions(y_true, y_pred))
            k = int(rng.integers(2, 5))
            dup_t = np.concatenate([y_true, *([y_true[y_true == 1]] * (k - 1))])
            dup_p = np.concatenate([y_pred, *([y_pred[y_true == 1]] * (k - 1))])
            assert uar(ConfusionMatrix.from_predictions(dup_t, dup_p)) == pytest.approx(base)

    def test_matches_oracle_on_random_instances(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 60))
            y_true = rng.integers(0, 2, n)
            if len(set(y_true.tolist())) < 2:
                continue
            y_pred = rng.integers(0, 2, n)
            got = uar(ConfusionMatrix.from_predictions(y_true, y_pred))
            assert abs(got - uar_oracle(y_true, y_pred)) < 1e-12

    def test_counts_match_loop_oracle(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            y_true, y_pred = rng.integers(0, 2, (2, int(rng.integers(0, 60))))
            expected = np.zeros((2, 2), dtype=np.int64)
            for t, p in zip(y_true, y_pred):
                expected[t, p] += 1
            got = ConfusionMatrix.from_predictions(y_true, y_pred).counts
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("y_true, y_pred", [
        ([0, 1, -1], [0, 1, 1]),
        ([0, 1, 2], [0, 1, 1]),
        ([0, 1, 1], [0, 2, 1]),
        ([0, 1, 1], [0, 0.5, 1]),
    ])
    def test_labels_outside_zero_one_rejected(self, y_true, y_pred):
        with pytest.raises(LabelError):
            ConfusionMatrix.from_predictions(y_true, y_pred)

    @pytest.mark.parametrize("y_true, y_pred", [
        ([0, 1, 1], [0, 1]),
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),
    ])
    def test_shape_mismatch_rejected(self, y_true, y_pred):
        with pytest.raises(ShapeError):
            ConfusionMatrix.from_predictions(y_true, y_pred)

    def test_empty_row_undefined(self):
        with pytest.raises(UndefinedRecall):
            uar(cm([[0, 0], [3, 7]]))

    def test_total(self):
        y_true = np.array([0, 0, 1, 1, 1, 0, 1])
        y_pred = np.array([0, 1, 1, 0, 1, 0, 0])
        assert ConfusionMatrix.from_predictions(y_true, y_pred).counts.sum() == len(y_true)


class TestPhi:
    def test_identical_vectors(self):
        x = np.array([0, 1, 1, 0, 1])
        assert phi(x, x) == pytest.approx(1.0)

    def test_independent_balanced(self):
        x = np.array([1] * 10 + [0] * 10)
        y = np.array(([1] * 5 + [0] * 5) * 2)
        assert phi(x, y) == pytest.approx(0.0)

    def test_equals_pearson_on_binary(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x = rng.integers(0, 2, 100)
            y = rng.integers(0, 2, 100)
            if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
                continue
            assert abs(phi(x, y) - pearson(x.astype(float), y.astype(float))) < 1e-12

    def test_matches_contingency_oracle(self):
        for seed in range(200):
            rng = np.random.default_rng(300 + seed)
            x = rng.integers(0, 2, 80)
            y = rng.integers(0, 2, 80)
            if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
                continue
            # oracle: phi is pearson on the 0/1 values (textbook identity)
            expected = pearson_oracle(x.astype(float).tolist(), y.astype(float).tolist())
            assert abs(phi(x, y) - expected) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        x, y = rng.integers(0, 2, 30), rng.integers(0, 2, 30)
        assert phi(x, y) == phi(y, x)

    def test_constant_vector_undefined(self):
        with pytest.raises(UndefinedCorrelation):
            phi(np.ones(10, dtype=int), np.array([0, 1] * 5))

    def test_constant_vector_undefined_whatever_its_value(self):
        # ten copies of 0.3 do not average to exactly 0.3
        with pytest.raises(UndefinedCorrelation):
            pearson(np.full(10, 0.3), np.arange(10.0))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ShapeError):
            phi([0, 1, 1], [0, 1])

    def test_matrices_rejected(self):
        with pytest.raises(ShapeError):
            phi(np.eye(2, dtype=int), np.eye(2, dtype=int)[::-1])

    @pytest.mark.parametrize("x, y", [
        ([0, 1, 2, 1, 0], [0, 1, 1, 1, 0]),
        ([0.7, 1, 0, 1], [0, 1, 0, 1]),
        ([0, 1, 0, 1], [0, 1, 0, -1]),
    ])
    def test_labels_outside_0_1_rejected(self, x, y):
        with pytest.raises(LabelError):
            phi(x, y)


class TestPearson:
    def test_affine(self):
        x = np.linspace(0, 4, 20)
        assert pearson(x, 2 * x + 3) == pytest.approx(1.0)

    def test_negation(self):
        x = np.linspace(-1, 1, 15)
        r = pearson(x, -x)
        assert r == pytest.approx(-1.0)
        assert abs(r) == pytest.approx(1.0)

    def test_matches_two_pass_oracle(self):
        for seed in range(200):
            rng = np.random.default_rng(600 + seed)
            x = rng.standard_normal(40)
            y = rng.standard_normal(40)
            assert abs(pearson(x, y) - pearson_oracle(x.tolist(), y.tolist())) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        x, y = rng.standard_normal(25), rng.standard_normal(25)
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)

    @pytest.mark.parametrize("x, y, unscaled_x, unscaled_y", [
        ([1e200, -1e200, 0.0], [1.0, 2.0, 3.0], [1.0, -1.0, 0.0], [1.0, 2.0, 3.0]),
        ([1e200, -1e200, 0.0], [1e200, -1e200, 0.0], [1.0, -1.0, 0.0], [1.0, -1.0, 0.0]),
        ([1e-200, -1e-200, 0.0], [1e-200, -1e-200, 0.0], [1.0, -1.0, 0.0], [1.0, -1.0, 0.0]),
    ], ids=["overflow-one", "overflow-both", "underflow"])
    def test_squares_out_of_float_range(self, x, y, unscaled_x, unscaled_y):
        """Pearson ignores scale, so vectors whose squares overflow or
        underflow correlate as their unscaled shapes do."""
        assert pearson(x, y) == pytest.approx(pearson_oracle(unscaled_x, unscaled_y), abs=1e-15)

    def test_zero_variance_undefined(self):
        with pytest.raises(UndefinedCorrelation):
            pearson(np.ones(10), np.arange(10.0))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ShapeError):
            pearson([0.0, 1.0, 2.0], [0.0, 1.0])

    @pytest.mark.parametrize("x, y", [
        ([1.0, 2.0, np.nan], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, np.inf, 3.0]),
    ])
    def test_non_finite_rejected(self, x, y):
        with pytest.raises(NonFinite):
            pearson(x, y)


class TestTraitPairTable:
    def synthetic_tables(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        scores = {t: rng.uniform(1, 5, n) for t in ("EX", "AG", "CO", "NE", "OP")}
        labels = {t: rng.integers(0, 2, n) for t in ("EX", "AG", "CO", "NE", "OP")}
        return scores, labels

    def test_exactly_ten_pairs(self):
        scores, labels = self.synthetic_tables()
        entries = trait_pair_table(scores, labels)
        assert len(entries) == 10
        assert entries[0].trait_pair == ("EX", "AG")
        assert entries[-1].trait_pair == ("NE", "OP")

    def test_duplicate_trait_scores_give_unit_pearson(self):
        scores, labels = self.synthetic_tables(seed=1)
        scores["AG"] = scores["EX"].copy()
        entries = trait_pair_table(scores, labels)
        ex_ag = next(e for e in entries if e.trait_pair == ("EX", "AG"))
        assert ex_ag.pearson_5scale == pytest.approx(1.0)

    def test_absolute_values_in_unit_interval(self):
        scores, labels = self.synthetic_tables(seed=2)
        for e in trait_pair_table(scores, labels):
            assert 0.0 <= e.phi_2scale <= 1.0
            assert 0.0 <= e.pearson_5scale <= 1.0

    def test_planted_correlation_recovered(self):
        # bivariate normal with rho = 0.5, n = 640
        rng = np.random.default_rng(3)
        n = 640
        z1 = rng.standard_normal(n)
        z2 = 0.5 * z1 + np.sqrt(1 - 0.25) * rng.standard_normal(n)
        scores, labels = self.synthetic_tables(seed=4, n=n)
        scores["EX"], scores["AG"] = 3 + z1, 3 + z2
        entries = trait_pair_table(scores, labels)
        ex_ag = next(e for e in entries if e.trait_pair == ("EX", "AG"))
        assert abs(ex_ag.pearson_5scale - 0.5) <= 0.1

    def test_undefined_becomes_none(self):
        scores, labels = self.synthetic_tables(seed=5)
        labels["CO"] = np.zeros(60, dtype=int)
        entries = trait_pair_table(scores, labels)
        for e in entries:
            if "CO" in e.trait_pair:
                assert e.phi_2scale is None
            else:
                assert e.phi_2scale is not None

    def test_missing_trait_rejected(self):
        scores, labels = self.synthetic_tables(seed=6)
        del scores["OP"]
        with pytest.raises(KeyError):
            trait_pair_table(scores, labels)

    def test_trait_with_fewer_labels_than_scores_rejected(self):
        """Each trait's Pearson and phi must read the same clips."""
        scores, labels = self.synthetic_tables(seed=7, n=4)
        labels = {t: y[:3] for t, y in labels.items()}
        with pytest.raises(ShapeError, match="'EX'"):
            trait_pair_table(scores, labels)

    def test_missing_label_is_label_error(self):
        scores, labels = self.synthetic_tables(seed=6)
        del labels["NE"]
        with pytest.raises(LabelError):
            trait_pair_table(scores, labels)
