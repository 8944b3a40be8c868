import numpy as np
import pytest

from uwloc.errors import SingularMatrixError
from uwloc.numerics import inv_sqrt_sym, solve_spd, sym_eig


def random_spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        w, _ = sym_eig(np.diag([2.0, 0.0, 0.0]))
        assert np.allclose(w, [0.0, 0.0, 2.0], atol=1e-14)

    def test_two_by_two_hand_values(self):
        # characteristic polynomial (2 - w)^2 - 1 = 0 -> w in {1, 3}
        w, _ = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(w, [1.0, 3.0], rtol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n))
            a = a + a.T
            w, v = sym_eig(a)
            assert np.all(np.diff(w) >= 0)
            scale = np.linalg.norm(a)
            assert np.linalg.norm(a @ v - v * w) <= 1e-10 * max(scale, 1.0)
            assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-10
            assert np.linalg.norm((v * w) @ v.T - a) <= 1e-9 * max(scale, 1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            sym_eig(np.ones((2, 3)))

    def test_gives_numpy_eigh_bits(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            a = a + a.T
            w, v = sym_eig(a)
            w_ref, v_ref = np.linalg.eigh(a)
            assert w.tobytes() == w_ref.tobytes()
            assert v.tobytes() == v_ref.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        a = np.eye(3)
        a[1, 1] = value
        with pytest.raises(ValueError, match="^matrix has an entry that is not finite$"):
            sym_eig(a)


class TestSolveSpd:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        assert np.allclose(solve_spd(np.eye(3), b), b)

    def test_scalar(self):
        assert np.allclose(solve_spd(np.array([[4.0]]), np.array([8.0])), [2.0])

    def test_known_solution(self):
        rng = np.random.default_rng(11)
        a = random_spd(rng, 5)
        x_known = rng.normal(size=5)
        x = solve_spd(a, a @ x_known)
        assert np.linalg.norm(x - x_known) <= 1e-9 * np.linalg.norm(x_known)

    def test_residual_bound_many_systems(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(3, 13))
            a = random_spd(rng, n)
            b = rng.normal(size=n)
            x = solve_spd(a, b)
            bound = 1e-9 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
            assert np.linalg.norm(a @ x - b) <= bound

    def test_singular_names_pivot(self):
        a = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(SingularMatrixError) as err:
            solve_spd(a, np.ones(3))
        assert err.value.pivot_index == 2

    def test_indefinite_rejected(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(SingularMatrixError):
            solve_spd(a, np.ones(2))


class TestInvSqrtSym:
    def test_identity(self):
        assert np.allclose(inv_sqrt_sym(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        s = inv_sqrt_sym(np.diag([4.0, 9.0]))
        assert np.allclose(s, np.diag([0.5, 1.0 / 3.0]))

    def test_sandwich_property(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            a = random_spd(rng, n)
            s = inv_sqrt_sym(a)
            assert np.allclose(s, s.T, atol=1e-12 * np.linalg.norm(s))
            assert np.linalg.norm(s @ a @ s - np.eye(n)) <= 1e-8

    def test_composition_with_input(self):
        rng = np.random.default_rng(19)
        a = random_spd(rng, 5)
        s = inv_sqrt_sym(a)
        assert np.linalg.norm(s @ s @ a - np.eye(5)) <= 1e-8

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            inv_sqrt_sym(np.diag([1.0, 0.0]))
