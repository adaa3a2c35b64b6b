import numpy as np
import pytest

from corrls import column_norm_error, false_positives, ree
from corrls.metrics import true_positive_rate


class TestRee:
    def test_exact_recovery(self):
        b = np.array([1.0, -2.0, 0.0])
        assert ree(b, b) == 0.0

    def test_zero_estimate(self):
        b = np.array([3.0, 4.0])
        assert ree(np.zeros(2), b) == 1.0

    def test_double_estimate(self):
        b = np.array([3.0, 4.0])
        assert ree(2 * b, b) == pytest.approx(1.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            ree(np.ones(2), np.zeros(2))


class TestFalsePositives:
    def test_perfect(self):
        assert false_positives({1, 2}, {1, 2}) == 0

    def test_everything_selected(self):
        assert false_positives(range(10), range(3)) == 7

    def test_partial_overlap(self):
        assert false_positives({0, 4}, {0, 1}) == 1

    def test_tpr(self):
        assert true_positive_rate({0, 4}, {0, 1}) == 0.5


class TestColumnNormError:
    def test_equal(self):
        A = np.arange(9.0).reshape(3, 3)
        assert column_norm_error(A, A) == 0.0

    def test_single_entry(self):
        A = np.zeros((3, 3))
        B = np.zeros((3, 3))
        B[1, 2] = 3.0
        assert column_norm_error(A, B) == 3.0

    def test_identity_difference(self):
        assert column_norm_error(np.eye(4), np.zeros((4, 4))) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            column_norm_error(np.eye(2), np.eye(3))



@pytest.mark.parametrize("build, message", [
    (lambda: ree(np.ones(2), np.zeros(2)), "beta0 is zero; relative error undefined"),
    (lambda: true_positive_rate({0, 1}, set()), "true support is empty"),
    (lambda: column_norm_error(np.eye(2), np.eye(3)), "shape mismatch"),
], ids=["ree_zero_truth", "tpr_empty_truth", "column_norm_shape"])
def test_undefined_metric_raises(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
