"""Subspace and dense-operator helpers."""

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from partlysmooth import (
    InjectivityReport,
    Subspace,
    check_covariance,
    check_symmetric,
    project,
    pseudoinverse,
    restricted_injectivity,
)
from partlysmooth.linalg import _row_dots, _row_dots_matmul, gamma_products, spectral_norms

from oracles import gamma_product, projector, span, subspace_distance, trivial


class TestSubspace:
    def test_trivial_and_full(self):
        t = trivial(4)
        assert t.ambient_dim == 4 and t.dim == 0
        assert projector(t).shape == (4, 4)
        assert np.all(projector(t) == 0)
        f = Subspace.full(3)
        assert f.dim == 3
        np.testing.assert_array_equal(projector(f), np.eye(3))

    def test_coordinates(self):
        s = Subspace.coordinates(5, [3, 1])
        assert s.dim == 2
        proj = projector(s)
        np.testing.assert_allclose(np.diag(proj), [0, 1, 0, 1, 0])
        np.testing.assert_allclose(proj, np.diag([0, 1, 0, 1, 0]))

    def test_coordinates_validation(self):
        with pytest.raises(ValueError):
            Subspace.coordinates(3, [3])
        with pytest.raises(ValueError):
            Subspace.coordinates(3, [-1])
        with pytest.raises(ValueError):
            Subspace.coordinates(3, [1, 1])

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            Subspace(np.array([[2.0], [0.0]]))
        with pytest.raises(ValueError):
            Subspace(np.array([[np.nan], [0.0]]))
        with pytest.raises(ValueError):
            Subspace(np.ones((2, 3)))

    def test_span_orthonormalizes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.integers(2, 10)
            k = rng.integers(1, p + 1)
            a = rng.normal(size=(p, k))
            s = span(a)
            assert s.dim == np.linalg.matrix_rank(a)
            # span is preserved: projecting the original columns is a no-op
            np.testing.assert_allclose(projector(s) @ a, a, atol=1e-10)

    def test_span_rank_deficient(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
        assert span(a).dim == 1
        assert span(np.zeros((3, 0))).dim == 0

    def test_projector_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = int(rng.integers(1, 12))
            k = int(rng.integers(0, p + 1))
            s = span(rng.normal(size=(p, max(k, 1))) if k else np.zeros((p, 0)))
            proj = projector(s)
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
            np.testing.assert_allclose(proj, proj.T, atol=1e-12)


def test_project_example():
    s = Subspace(np.array([[1.0], [1.0]]) / np.sqrt(2))
    np.testing.assert_allclose(project([1.0, 0.0], s), [0.5, 0.5], atol=1e-12)


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        project([1.0, 0.0, 0.0], Subspace.full(2))


class TestPseudoinverse:
    def test_example(self):
        np.testing.assert_allclose(pseudoinverse(np.ones((2, 2))), 0.25 * np.ones((2, 2)), atol=1e-12)

    def test_penrose_identities(self):
        # the four defining identities, on full-rank and rank-deficient draws
        rng = np.random.default_rng(3)
        for trial in range(100):
            m = int(rng.integers(1, 20))
            n = int(rng.integers(1, 20))
            r = int(rng.integers(0, min(m, n) + 1))
            a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n)) if r else np.zeros((m, n))
            ap = pseudoinverse(a)
            assert ap.shape == (n, m)
            np.testing.assert_allclose(a @ ap @ a, a, atol=1e-8)
            np.testing.assert_allclose(ap @ a @ ap, ap, atol=1e-8)
            np.testing.assert_allclose(a @ ap, (a @ ap).T, atol=1e-8)
            np.testing.assert_allclose(ap @ a, (ap @ a).T, atol=1e-8)

    def test_empty(self):
        assert pseudoinverse(np.zeros((0, 3))).shape == (3, 0)


class TestRestrictedInjectivity:
    def test_example(self):
        gamma = np.array([[1.0, 0.0], [0.0, 0.5]])
        rep = restricted_injectivity(gamma, Subspace.full(2))
        assert isinstance(rep, InjectivityReport)
        assert rep.holds
        assert rep.smallest_singular == pytest.approx(0.5)
        # one-dimensional subspace: the singular value is the column norm
        # ||gamma (1,1)/sqrt(2)|| = sqrt(1.25/2)
        s = Subspace(np.array([[1.0], [1.0]]) / np.sqrt(2))
        rep2 = restricted_injectivity(gamma, s)
        np.testing.assert_allclose(rep2.smallest_singular, np.sqrt(0.625), atol=1e-12)

    def test_trivial_subspace(self):
        rep = restricted_injectivity(np.zeros((3, 3)), trivial(3))
        assert rep.holds and rep.smallest_singular == np.inf

    def test_kernel_meets_subspace(self):
        gamma = np.diag([1.0, 0.0])
        rep = restricted_injectivity(gamma, Subspace.coordinates(2, [1]))
        assert not rep.holds
        assert rep.smallest_singular == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            restricted_injectivity(np.eye(3), Subspace.full(2))


def test_spectral_norm():
    assert spectral_norms(np.diag([1.5, -0.2])) == pytest.approx(1.5)
    assert spectral_norms(np.zeros((0, 0))) == 0.0
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = int(rng.integers(1, 10))
        a = rng.normal(size=(p, p))
        sym = a + a.T
        assert spectral_norms(sym) == pytest.approx(np.linalg.norm(sym, 2), rel=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3, 10, 50, 200])
def test_stacked_norms_are_spectral_norm_bits(p):
    rng = np.random.default_rng(p)
    x = rng.normal(size=(4, p + 5, p))
    stack = np.matmul(x.transpose(0, 2, 1), x) / (p + 5)
    norms = spectral_norms(stack)
    assert norms.shape == (4,)
    for a, norm in zip(stack, norms):
        # bit for bit, not approximately
        assert norm == np.abs(np.linalg.eigvalsh(a.copy())).max()
    assert spectral_norms(stack[:1])[0] == norms[0]
    assert spectral_norms(np.zeros((3, 0, 0))).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("p", [1, 3, 10, 200, 300])  # 300: past a 256-wide K panel
def test_gamma_products_have_the_bits_of_a_lone_row(p):
    rng = np.random.default_rng(47)
    a = rng.normal(size=(3, p, p))
    distinct = a + a.transpose(0, 2, 1)
    for size in (1, 2, 3, 4, 5, 40):
        # offset rows ahead of the others move them within their blocks
        for offset in range(4):
            count = offset + size
            beta = rng.normal(size=(count, p))
            stack = distinct[np.arange(count) % 3]
            for gam, gams in ((distinct[0], [distinct[0]] * count), (stack, stack)):
                rows = np.arange(count)
                # every row, then the rows left once every other one leaves
                for keep in (None, rows % 2 == 0):
                    if keep is not None:
                        rows = rows[keep]
                        gam = gam if gam.ndim == 2 else gam[keep]
                    got = gamma_products(gam, beta[rows])
                    for row, i in enumerate(rows):
                        want = gamma_product(gams[i], beta[i])
                        assert got[row].tobytes() == want.tobytes(), (size, offset, i)


def test_row_dots_have_the_bits_of_a_blas_dot():
    rng = np.random.default_rng(44)
    # np.vecdot where numpy has it, the matmul form before numpy 2
    for dots in (_row_dots, _row_dots_matmul):
        for rows, p in ((1, 1), (3, 10), (40, 10), (7, 257)):
            a, b = rng.normal(size=(rows, p)), rng.normal(size=(rows, p)) * 1e3
            got = dots(a, b)
            assert got.tolist() == [x.dot(y) for x, y in zip(a, b)]


@pytest.mark.parametrize("p", [5, 9, 201])
def test_row_dots_of_a_stacked_row_have_the_bits_of_a_lone_row(p):
    # with p odd, row 1 of a contiguous T x p float64 stack is 8 bytes off
    # the 16-byte alignment of a fresh array.  A BLAS dot that rounds by
    # alignment fails here: OpenBLAS's Prescott kernel does, and that alone
    # breaks the stacked draws' eps_norm and the nuclear objective, which
    # compare stacked rows with one-trial arrays.
    rng = np.random.default_rng(49)
    for dots in (_row_dots, _row_dots_matmul):
        for _ in range(100):
            a, b = rng.normal(size=(4, p)), rng.normal(size=(4, p))
            got = dots(a, b)
            for i in range(4):
                [want] = dots(a[i].copy()[None], b[i].copy()[None])
                assert got[i].tobytes() == want.tobytes(), (p, i)


class TestSubspaceDistance:
    def test_identical(self):
        s = Subspace.coordinates(4, [0, 2])
        assert subspace_distance(s, s) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal(self):
        a = Subspace.coordinates(2, [0])
        b = Subspace.coordinates(2, [1])
        assert subspace_distance(a, b) == pytest.approx(1.0)

    def test_45_degrees(self):
        a = Subspace.coordinates(2, [0])
        b = Subspace(np.array([[1.0], [1.0]]) / np.sqrt(2))
        assert subspace_distance(a, b) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_matches_principal_angles(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = int(rng.integers(2, 10))
            k = int(rng.integers(1, p))
            a = span(rng.normal(size=(p, k)))
            b = span(rng.normal(size=(p, k)))
            if a.dim != b.dim:
                continue
            angles = subspace_angles(a.basis, b.basis)
            assert subspace_distance(a, b) == pytest.approx(np.sin(angles).max(), abs=1e-10)
            assert subspace_distance(a, b) == pytest.approx(subspace_distance(b, a), abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            p = int(rng.integers(1, 8))
            a = span(rng.normal(size=(p, int(rng.integers(1, p + 1)))))
            b = span(rng.normal(size=(p, int(rng.integers(1, p + 1)))))
            assert subspace_distance(a, b) <= 1.0 + 1e-12

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            subspace_distance(Subspace.full(2), Subspace.full(3))


def test_check_symmetric():
    with pytest.raises(ValueError):
        check_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        check_symmetric(np.ones((2, 3)))
    a = np.array([[1.0, 2.0], [2.0, 3.0]])
    np.testing.assert_array_equal(check_symmetric(a), a)


def test_check_covariance():
    with pytest.raises(ValueError):
        check_covariance(np.diag([1.0, -1.0]))
    # tiny negative eigenvalues from roundoff are tolerated
    np.testing.assert_array_equal(
        check_covariance(np.diag([1.0, -1e-9])), np.diag([1.0, -1e-9])
    )
    with pytest.raises(ValueError):
        check_covariance(np.array([[1.0, 0.5], [0.4, 1.0]]))
