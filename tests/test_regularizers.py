"""Penalty values, proximal maps (step_batch), model geometry and membership verdicts."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from partlysmooth import (
    AnalysisL1,
    GroupL1L2,
    L1,
    ModelDescriptor,
    Nuclear,
    Subspace,
    project,
)
from partlysmooth.config import regularizer_from_config

import oracles


def all_regularizers():
    return [
        L1(),
        GroupL1L2([[0, 1], [2, 3], [4, 5]]),
        Nuclear((3, 3)),
        AnalysisL1(oracles.tv_operator(6)),
    ]


def dim_of(reg):
    # L1 works in any dimension; the others carry theirs
    return getattr(reg, "p", 6)


def random_point(reg, rng):
    return rng.normal(0.0, 2.0, dim_of(reg))


# ---------------------------------------------------------------------------
# values


def test_l1_value():
    assert L1().value([3.0, -0.5, 0.0]) == pytest.approx(3.5)
    assert L1().value(np.zeros(4)) == 0.0


def test_group_value():
    reg = GroupL1L2([[0, 1], [2]])
    assert reg.value([3.0, 4.0, -2.0]) == pytest.approx(7.0)


def test_nuclear_value():
    reg = Nuclear((2, 2))
    assert reg.value(np.diag([2.0, 1.0]).ravel(order="F")) == pytest.approx(3.0)
    # singular values do not care about where the mass sits
    m = np.array([[0.0, 2.0], [1.0, 0.0]])
    assert reg.value(m.ravel(order="F")) == pytest.approx(3.0)


def test_analysis_value():
    d = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])
    reg = AnalysisL1(d)
    assert reg.value([2.0, 2.0, 5.0]) == pytest.approx(3.0)


def test_value_matches_the_reference_formula():
    # random and prox-thresholded points, with singleton groups, groups of 5
    # and the identity analysis operator besides all_regularizers
    rng = np.random.default_rng(11)
    regs = all_regularizers() + [
        GroupL1L2([[i] for i in range(7)]),
        GroupL1L2([list(range(5 * i, 5 * i + 5)) for i in range(4)]),
        AnalysisL1(np.eye(5)),
    ]
    for reg in regs:
        for trial in range(40):
            beta = random_point(reg, rng)
            if trial % 2:
                beta = oracles.prox(reg, beta, float(rng.uniform(0.5, 3.0)))
            expect = oracles.penalty_value(reg, beta)
            assert math.isclose(reg.value(beta), expect, rel_tol=1e-13), reg.kind


def test_value_positive_homogeneity():
    rng = np.random.default_rng(10)
    for reg in all_regularizers():
        for _ in range(25):
            beta = random_point(reg, rng)
            c = float(rng.uniform(0.1, 10.0))
            assert reg.value(c * beta) == pytest.approx(c * reg.value(beta), rel=1e-10)
            assert reg.value(beta) >= 0.0
        assert reg.value(np.zeros(dim_of(reg))) == 0.0


# ---------------------------------------------------------------------------
# proximal maps: step_batch, one row at a time through oracles.prox


def test_l1_prox_example():
    np.testing.assert_allclose(oracles.prox(L1(), [3.0, -0.5, 0.0], 1.0), [2.0, 0.0, 0.0])


def test_group_prox_example():
    reg = GroupL1L2([[0, 1]])
    np.testing.assert_allclose(oracles.prox(reg, [3.0, 4.0], 1.0), [2.4, 3.2], atol=1e-12)


def test_group_prox_kills_small_blocks():
    reg = GroupL1L2([[0, 1], [2]])
    out = oracles.prox(reg, [0.3, 0.4, 2.0], 1.0)
    np.testing.assert_allclose(out, [0.0, 0.0, 1.0], atol=1e-12)


def test_nuclear_prox_example():
    reg = Nuclear((2, 2))
    out = oracles.prox(reg, np.diag([3.0, 1.0]).ravel(order="F"), 2.0)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]).ravel(order="F"), atol=1e-12)


def test_analysis_prox_example():
    d = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])
    reg = AnalysisL1(d)
    out = oracles.prox(reg, [3.0, 1.0, -2.0], 0.5)
    np.testing.assert_allclose(out, [2.5, 1.0, -1.5], atol=1e-8)


def test_analysis_prox_raises_when_its_inner_loop_does_not_converge(monkeypatch):
    import partlysmooth.regularizers as regs

    monkeypatch.setattr(regs, "PROX_INNER_MAX_ITER", 2)
    message = (r"^analysis prox did not converge in 2 iterations "
               rf"\(fixed-point residual \d\.\d{{3}}e[-+]\d+ > {regs.PROX_INNER_TOL}\)$")
    with pytest.raises(RuntimeError, match=message):
        oracles.prox(AnalysisL1(oracles.tv_operator(4)), [3.0, -1.0, 2.0, 0.5], 0.5)


def test_analysis_prox_matches_enumeration():
    d = oracles.tv_operator(4)
    reg = AnalysisL1(d)
    rng = np.random.default_rng(11)
    for _ in range(20):
        beta = rng.normal(0.0, 2.0, 4)
        gamma = float(rng.uniform(0.1, 1.5))
        expected = oracles.analysis_prox_enumerated(d, beta, gamma)
        np.testing.assert_allclose(oracles.prox(reg, beta, gamma), expected, atol=1e-7)


def test_prox_gamma_zero_is_identity():
    rng = np.random.default_rng(12)
    for reg in all_regularizers():
        beta = random_point(reg, rng)
        np.testing.assert_allclose(oracles.prox(reg, beta, 0.0), beta, atol=1e-12)


def test_step_matches_prox_descriptor_value_bitwise():
    # the penalty's solver step on one-row batches: J and the model key are
    # read off the magnitudes step_batch returns, as the solver reads them
    rng = np.random.default_rng(14)
    for reg in all_regularizers():
        for trial in range(30):
            v = random_point(reg, rng)
            if trial % 3 == 0:
                v[: v.size // 2] = 0.0  # exact zeros and whole inactive blocks
            weight = 0.0 if trial == 1 else float(rng.uniform(0.05, 2.0))
            [out], [size] = reg.step_batch(v[None], np.array([weight]))
            val, key = size.sum(), size > 1e-8
            assert (key == reg.model_keys(out[None], 1e-8)[0]).all(), reg.kind
            assert reg.key_descriptor(key) == oracles.descriptor(reg, out, 1e-8), reg.kind
            assert val == reg.value(out), reg.kind
            assert math.isclose(val, oracles.penalty_value(reg, out), rel_tol=1e-13), reg.kind


def test_step_batch_matches_step_row_by_row():
    # a row of a batch gets the bits it gets alone, whatever the other rows
    rng = np.random.default_rng(15)
    for reg in all_regularizers():
        v = np.array([random_point(reg, rng) for _ in range(7)])
        v[0] = 0.0  # an all-zero row
        v[1, : v.shape[1] // 2] = 0.0
        weights = rng.uniform(0.05, 2.0, 7)
        weights[2] = 0.0
        out, size = reg.step_batch(v, weights)
        values, keys = size.sum(axis=1), size > 1e-8
        assert (keys == reg.model_keys(out, 1e-8)).all(), reg.kind
        start = reg.model_keys(v, 1e-8)
        for i in range(7):
            [alone], [alone_size] = reg.step_batch(v[i : i + 1], weights[i : i + 1])
            assert out[i].tobytes() == alone.tobytes(), reg.kind
            assert size[i].tobytes() == alone_size.tobytes(), reg.kind
            assert values[i] == reg.value(alone), reg.kind
            expect = oracles.penalty_value(reg, alone)
            assert math.isclose(values[i], expect, rel_tol=1e-13), reg.kind
            assert reg.key_descriptor(keys[i]) == oracles.descriptor(reg, alone, 1e-8), reg.kind
            assert reg.key_descriptor(start[i]) == oracles.descriptor(reg, v[i], 1e-8), reg.kind
        # keys differ exactly where the descriptors do
        differ = (keys != start).any(axis=1)
        expect = [reg.key_descriptor(a) != reg.key_descriptor(b) for a, b in zip(keys, start)]
        assert differ.tolist() == expect, reg.kind


ONE_ROW_REGULARIZERS = {
    "l1": L1(),
    "group_scattered": GroupL1L2([[0, 4, 7], [1, 2, 3], [5], [6, 8]]),
    "group_contiguous": GroupL1L2([[0, 1, 2], [3, 4, 5], [6, 7, 8]]),
    "group_singletons": GroupL1L2([[i] for i in range(9)]),
    "nuclear": Nuclear((3, 3)),
    "analysis_l1": AnalysisL1(oracles.tv_operator(9)),
}

# the group map scales v_g by (||v_g|| - w) / ||v_g|| from summed squares,
# where the one-row loop took 1 - w / ||v_g|| from np.linalg.norm: at most
# 2.44 ulps of |v_i| apart on 20000 random rows of each partition here and of
# 4 groups of 5, and never one zero where the other is not
GROUP_ULPS = 4


@pytest.mark.parametrize("name", ONE_ROW_REGULARIZERS)
def test_step_batch_matches_the_one_row_proxes(name):
    # a stack of rows against the one-row maps the penalties had before
    # step_batch: bit for bit, but for the group map's stated ulp bound
    reg = ONE_ROW_REGULARIZERS[name]
    rng = np.random.default_rng(16)
    v = rng.normal(0.0, 1.5, (40, 9))
    weights = rng.uniform(0.05, 3.0, 40)
    v[0] = 0.0  # a zero row
    v[1, :4] = 0.0  # zero coordinates: whole zero groups where a group is in 0..3
    v[2, [0, 4, 7]] = 0.0  # the first scattered group
    weights[3] = 0.0
    # rank-deficient matrices: rank 1 and rank 2 (column-major 3 x 3)
    v[4] = np.outer(rng.normal(size=3), rng.normal(size=3)).ravel(order="F")
    v[5] = (rng.normal(size=(3, 2)) @ rng.normal(size=(2, 3))).ravel(order="F")
    out, size = reg.step_batch(v, weights)
    assert size.tobytes() == reg.magnitudes(out).tobytes()
    if reg.kind != "nuclear":  # a weight of 0 keeps the row, but through an SVD
        assert out[3].tobytes() == v[3].tobytes()
    for i in range(len(v)):
        ref = oracles.one_row_prox(reg, v[i], weights[i])
        if reg.kind == "group_l1l2":
            assert ((out[i] == 0.0) == (ref == 0.0)).all(), i
            assert (np.abs(out[i] - ref) <= GROUP_ULPS * np.spacing(np.abs(v[i]))).all(), i
        else:
            assert out[i].tobytes() == ref.tobytes(), i


def test_prox_nonexpansive():
    rng = np.random.default_rng(13)
    for reg in all_regularizers():
        for _ in range(50):
            a = random_point(reg, rng)
            b = random_point(reg, rng)
            gamma = float(rng.uniform(0.05, 3.0))
            dist = np.linalg.norm(oracles.prox(reg, a, gamma) - oracles.prox(reg, b, gamma))
            assert dist <= np.linalg.norm(a - b) + 1e-9


def test_prox_against_generic_minimizer():
    # derivative-free minimization as an implementation-independent check;
    # Powell stalls on larger nonsmooth problems, so the assertion is
    # one-sided: the implementation must reach at least as low an objective
    rng = np.random.default_rng(14)
    for reg in all_regularizers():
        for _ in range(3):
            beta = random_point(reg, rng)
            gamma = float(rng.uniform(0.2, 1.0))

            def obj(x):
                return 0.5 * np.sum((x - beta) ** 2) + gamma * reg.value(x)

            ref = oracles.prox_reference(reg.value, beta, gamma)
            got = oracles.prox(reg, beta, gamma)
            assert obj(got) <= obj(ref) + 1e-8
            # and when Powell does converge the points must agree
            if obj(ref) <= obj(got) + 1e-10:
                np.testing.assert_allclose(got, ref, atol=1e-4)


# ---------------------------------------------------------------------------
# models


def test_l1_model():
    geo = L1().model(np.array([1.0, -2.0, 0.0]))
    assert geo.descriptor == ModelDescriptor("l1", (0, 1))
    assert geo.subspace.dim == 2
    np.testing.assert_allclose(geo.model_vector, [1.0, -1.0, 0.0])
    assert geo.offset is None


def test_l1_model_zero_point():
    geo = L1().model(np.zeros(3))
    assert geo.descriptor.data == ()
    assert geo.subspace.dim == 0
    np.testing.assert_allclose(geo.model_vector, np.zeros(3))


def test_l1_zero_tol_threshold():
    desc = L1().descriptor(np.array([1.0, 1e-9]), zero_tol=1e-8)
    assert desc.data == (0,)
    desc = L1().descriptor(np.array([1.0, 1e-9]), zero_tol=1e-10)
    assert desc.data == (0, 1)


def test_group_model():
    reg = GroupL1L2([[0, 1], [2]])
    geo = reg.model(np.array([3.0, 4.0, 0.0]))
    assert geo.descriptor == ModelDescriptor("group_l1l2", (0,))
    assert geo.subspace.dim == 2
    np.testing.assert_allclose(geo.model_vector, [0.6, 0.8, 0.0])


def test_nuclear_model():
    reg = Nuclear((2, 2))
    geo = reg.model(np.diag([5.0, 0.0]).ravel(order="F"))
    assert geo.descriptor == ModelDescriptor("nuclear", 1)
    # fixed-rank tangent space dimension p0^2 - (p0 - r)^2
    assert geo.subspace.dim == 3
    np.testing.assert_allclose(
        np.abs(geo.model_vector), np.abs(np.diag([1.0, 0.0]).ravel(order="F")), atol=1e-12
    )
    mat = geo.model_vector.reshape(2, 2, order="F")
    # e and beta share their rank-one direction
    assert mat[0, 0] * 5.0 > 0


def test_nuclear_tangent_dimension():
    rng = np.random.default_rng(15)
    for p0, r in [(3, 1), (4, 2), (5, 0), (4, 4)]:
        reg = Nuclear((p0, p0))
        a = rng.normal(size=(p0, r)) @ rng.normal(size=(r, p0)) if r else np.zeros((p0, p0))
        geo = reg.model(a.ravel(order="F"))
        assert geo.descriptor.data == np.linalg.matrix_rank(a)
        assert geo.subspace.dim == p0 * p0 - (p0 - geo.descriptor.data) ** 2


def test_analysis_model():
    d = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])
    reg = AnalysisL1(d)
    geo = reg.model(np.array([2.0, 2.0, 5.0]))
    assert geo.descriptor == ModelDescriptor("analysis_l1", (0,))
    assert geo.subspace.dim == 2
    np.testing.assert_allclose(geo.model_vector, [-0.5, -0.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(geo.offset, [0.0, -1.0, 1.0], atol=1e-12)


def test_analysis_model_constant_vector():
    # every difference vanishes: T is the kernel of the full operator
    reg = AnalysisL1(oracles.tv_operator(5))
    geo = reg.model(np.full(5, 3.0))
    assert geo.descriptor.data == (0, 1, 2, 3)
    assert geo.subspace.dim == 1
    np.testing.assert_allclose(np.abs(geo.subspace.basis[:, 0]), np.full(5, 1 / np.sqrt(5)))


def test_model_vector_lies_in_tangent():
    rng = np.random.default_rng(16)
    for reg in all_regularizers():
        for _ in range(20):
            beta = oracles.prox(reg, random_point(reg, rng), float(rng.uniform(0.1, 1.0)))
            geo = reg.model(beta)
            np.testing.assert_allclose(
                project(geo.model_vector, geo.subspace), geo.model_vector, atol=1e-8
            )
            assert geo.descriptor == reg.descriptor(beta)


def key_width(reg):
    # one key column per coordinate, group, singular value or difference
    if reg.kind == "group_l1l2":
        return len(reg.groups)
    if reg.kind == "nuclear":
        return reg.shape[0]
    return getattr(reg, "q", dim_of(reg))


def test_model_keys_are_bool_masks_of_one_row_per_point():
    rng = np.random.default_rng(17)
    for reg in all_regularizers():
        for count in (1, 4):
            beta = np.array([random_point(reg, rng) for _ in range(count)])
            beta[0] = 0.0
            keys = reg.model_keys(beta, 1e-8)
            assert keys.dtype == bool, reg.kind
            assert keys.shape == (count, key_width(reg)), reg.kind


def test_model_reads_its_descriptor_from_descriptor():
    rng = np.random.default_rng(18)
    for reg in all_regularizers():
        for trial in range(10):
            beta = random_point(reg, rng)
            if trial % 2:
                beta[: beta.size // 2] = 0.0
            for zero_tol in (1e-8, 0.5):
                geo = reg.model(beta, zero_tol)
                assert geo.descriptor == reg.descriptor(beta, zero_tol), reg.kind
                assert geo.descriptor == oracles.descriptor(reg, beta, zero_tol), reg.kind


def test_model_keys_match_the_reference_rule_at_the_threshold():
    # one model entry exactly at zero_tol (not in the model) and one a ulp
    # above it (in the model), for every penalty
    tol = 1e-8
    above = np.nextafter(tol, 1)
    cases = [
        (L1(), [tol, above, -tol, -above, 0.0, 1.0], (1, 3, 5)),
        (GroupL1L2([[0], [1], [2, 3]]), [tol, -above, 0.0, 0.0], (1,)),
        (Nuclear((3, 3)), np.diag([1.0, tol, above]).ravel(order="F"), 2),
        # D^T beta = (tol, -tol, above, -above, 0): the cosupport is {0, 1, 4}
        (AnalysisL1(oracles.tv_operator(6)), [0.0, tol, 0.0, above, 0.0, 0.0], (0, 1, 4)),
    ]
    for reg, beta, expect in cases:
        beta = np.asarray(beta)
        [key] = reg.model_keys(beta[None], tol)
        assert reg.key_descriptor(key) == oracles.descriptor(reg, beta, tol), reg.kind
        assert reg.descriptor(beta, tol) == ModelDescriptor(reg.kind, expect), reg.kind


# ---------------------------------------------------------------------------
# membership verdicts


def test_l1_membership():
    reg = L1()
    geo = reg.model(np.array([1.0, -2.0, 0.0]))
    v = reg.ri_membership(geo, [1.0, -1.0, 0.4])
    assert v.status == "interior"
    assert v.margin == pytest.approx(0.6)
    assert v.tangent_residual == pytest.approx(0.0, abs=1e-14)

    v = reg.ri_membership(geo, [1.0, -1.0, 1.0])
    assert v.status == "boundary"
    v = reg.ri_membership(geo, [1.0, -1.0, 1.5])
    assert v.status == "outside" and v.margin == pytest.approx(-0.5)
    # tangent equation failure dominates the margin
    v = reg.ri_membership(geo, [0.5, -1.0, 0.0])
    assert v.status == "outside"
    assert v.tangent_residual == pytest.approx(0.5)


def test_group_membership():
    reg = GroupL1L2([[0, 1], [2]])
    geo = reg.model(np.array([3.0, 4.0, 0.0]))
    v = reg.ri_membership(geo, [0.6, 0.8, 0.3])
    assert v.status == "interior" and v.margin == pytest.approx(0.7)
    v = reg.ri_membership(geo, [0.5, 0.8, 0.3])
    assert v.status == "outside"
    assert v.tangent_residual == pytest.approx(0.1)


def test_nuclear_membership():
    reg = Nuclear((2, 2))
    geo = reg.model(np.diag([5.0, 0.0]).ravel(order="F"))
    v = reg.ri_membership(geo, np.diag([1.0, 0.3]).ravel(order="F"))
    assert v.status == "interior"
    assert v.margin == pytest.approx(0.7)
    v = reg.ri_membership(geo, np.diag([1.0, 1.4]).ravel(order="F"))
    assert v.status == "outside" and v.margin == pytest.approx(-0.4)


def test_analysis_membership():
    d = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])
    reg = AnalysisL1(d)
    geo = reg.model(np.array([2.0, 2.0, 5.0]))
    v = reg.ri_membership(geo, geo.model_vector)
    assert v.status == "interior"
    assert v.margin == pytest.approx(0.5, abs=1e-9)
    v = reg.ri_membership(geo, d @ np.array([1.5, 1.0]))
    assert v.status == "outside"
    assert v.margin == pytest.approx(-0.5, abs=1e-9)


def test_analysis_membership_empty_cosupport():
    reg = AnalysisL1(oracles.tv_operator(4))
    geo = reg.model(np.array([1.0, 2.0, 4.0, 8.0]))
    assert geo.descriptor.data == ()
    v = reg.ri_membership(geo, geo.model_vector)
    assert v.status == "interior" and v.margin == pytest.approx(1.0)


def analysis_cases():
    """(operator, cosupport) pairs: every cosupport of four small operators,
    and seeded random cosupports of a p = 20 difference operator."""
    small = [oracles.tv_operator(6), np.eye(8), oracles.tv_operator(3), np.array([[1.0], [2.0]])]
    for d in small:
        for mask in itertools.product((False, True), repeat=d.shape[1]):
            yield d, np.flatnonzero(mask)
    rng = np.random.default_rng(31)
    d = oracles.tv_operator(20)
    for _ in range(60):
        size = int(rng.integers(0, 20))
        yield d, np.sort(rng.choice(19, size=size, replace=False))


def point_with_cosupport(d, cosupport, rng):
    # D has full column rank, so D^T beta = z is solvable for any z
    z = rng.choice([-1.0, 1.0], d.shape[1]) * rng.uniform(0.5, 2.0, d.shape[1])
    z[cosupport] = 0.0
    return np.linalg.lstsq(d.T, z, rcond=None)[0]


def test_analysis_margin_matches_the_lp():
    # eta = offset + D_I alpha meets the tangent equation; the unique dual
    # is alpha, and the closed form reads the LP's margin
    rng = np.random.default_rng(30)
    count = 0
    for d, cosupport in analysis_cases():
        reg = AnalysisL1(d)
        geo = reg.model(point_with_cosupport(d, cosupport, rng))
        assert geo.descriptor.data == tuple(cosupport.tolist())
        if cosupport.size:
            want = scipy.linalg.null_space(d[:, cosupport].T)
            assert oracles.subspace_distance(geo.subspace, Subspace(want)) < 1e-12
        else:
            assert geo.subspace.dim == d.shape[0]
        eta = geo.offset + d[:, cosupport] @ rng.uniform(-1.5, 1.5, cosupport.size)
        verdict = reg.ri_membership(geo, eta)
        assert verdict.tangent_residual < 1e-12
        want = oracles.analysis_margin_lp(d, cosupport, eta, geo.offset)
        assert abs(verdict.margin - want) < 1e-12, (d.shape, cosupport)
        count += 1
    assert count == 32 + 256 + 4 + 2 + 60


OFF_MODEL_REGULARIZERS = {
    "l1": L1(),
    "group_scattered": GroupL1L2([[0, 4, 7], [1, 2, 3], [5], [6, 8]]),
    "group_contiguous": GroupL1L2([[0, 1, 2], [3, 4, 5], [6, 7, 8]]),
    "group_singletons": GroupL1L2([[i] for i in range(9)]),
}


def off_model_blocks(reg):
    # the coordinates of each key column of a 9-vector: one each for L1
    return getattr(reg, "groups", [[i] for i in range(9)])


def model_point(reg, key):
    # a point whose model has the set entries of key: its support or active groups
    blocks = off_model_blocks(reg)
    beta = np.zeros(9)
    beta[[i for g in np.flatnonzero(key) for i in blocks[g]]] = 1.0
    return beta


@pytest.mark.parametrize("name", OFF_MODEL_REGULARIZERS)
def test_off_model_max_matches_the_one_row_formula(name):
    # the batched read against the one-row formulas it replaces: L1 bit for
    # bit, the group norm to rounding (stacked norms against one
    # np.linalg.norm per group; 1 ulp at most on 2000 rows of each partition)
    reg = OFF_MODEL_REGULARIZERS[name]
    rng = np.random.default_rng(17)
    eta = rng.normal(0.0, 1.5, (60, 9))
    keys = rng.random((60, len(off_model_blocks(reg)))) < 0.4
    keys[0], keys[1] = True, False
    got = reg.off_model_max(eta, keys)
    assert got.shape == (60,) and got[0] == 0.0
    for i in range(60):
        active = np.flatnonzero(keys[i])
        expect = oracles.off_model_max(reg, eta[i], active)
        if reg.kind == "l1":
            assert got[i] == expect
        else:
            assert math.isclose(got[i], expect, rel_tol=2 * np.finfo(float).eps), (i, got[i], expect)
        # ri_membership reads the same maximum through the descriptor's key
        margin = reg.ri_membership(reg.model(model_point(reg, keys[i])), eta[i]).margin
        assert margin == 1.0 - got[i]
    assert reg.ri_membership(reg.model(np.ones(9)), eta[0]).margin == 1.0


@pytest.mark.parametrize("name", OFF_MODEL_REGULARIZERS)
def test_off_model_max_propagates_nan_off_the_model_only(name):
    # a NaN at coordinate 0 reads NaN where 0's entry is off the model, and
    # nothing where it is on it; the other rows keep their values
    reg = OFF_MODEL_REGULARIZERS[name]
    eta = np.full((4, 9), 0.5)
    eta[:2, 0] = np.nan
    keys = np.zeros((4, len(off_model_blocks(reg))), dtype=bool)
    keys[0, 0] = keys[2, 0] = True
    got = reg.off_model_max(eta, keys)
    assert np.isnan(got[1]) and not np.isnan(got[[0, 2, 3]]).any()
    assert got[0] == got[2] == reg.off_model_max(eta[2:3], keys[2:3])[0]


def test_off_model_max_with_no_entries_reads_zero():
    assert L1().off_model_max(np.zeros((2, 0)), np.zeros((2, 0), dtype=bool)).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# validation and construction


def test_group_partition_validation():
    with pytest.raises(ValueError):
        GroupL1L2([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        GroupL1L2([[0], [2]])
    with pytest.raises(ValueError):
        GroupL1L2([[0], []])
    with pytest.raises(ValueError):
        GroupL1L2([[-1, 0]])
    with pytest.raises(ValueError):
        GroupL1L2([])


def test_group_indices_must_be_integers():
    # a fraction or a bool is refused, not truncated to an index
    for groups in ([[0, 1.7], [2]], [[0, True], [2]]):
        with pytest.raises(ValueError, match="groups index must be an integer"):
            GroupL1L2(groups)
    reg = GroupL1L2([np.arange(2), [np.int32(2)]])
    assert [g.tolist() for g in reg.groups] == [[0, 1], [2]]


def test_nuclear_shape_must_be_integers():
    for shape in ((2.5, 2.5), (True, True)):
        with pytest.raises(ValueError, match="matrix_shape entry must be an integer"):
            Nuclear(shape)
    assert Nuclear((np.int64(2), np.int8(2))).shape == (2, 2)


def test_nuclear_shape_validation():
    with pytest.raises(ValueError):
        Nuclear((2, 3))
    with pytest.raises(ValueError):
        Nuclear((0, 0))
    with pytest.raises(ValueError):
        Nuclear((2,))
    reg = Nuclear((2, 2))
    with pytest.raises(ValueError):
        reg.value(np.zeros(3))


def test_analysis_operator_validation():
    with pytest.raises(ValueError):
        AnalysisL1(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        AnalysisL1(np.array([1.0, 2.0]))
    # a dual on a cosupport is unique only when D is injective: a zero, a
    # rank-1 and a wide operator are refused, naming the rank
    for operator, rank in [
        (np.zeros((3, 2)), 0),
        (np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]]), 1),
        (np.hstack([oracles.tv_operator(3), np.eye(3)[:, :2]]), 3),
    ]:
        want = f"full column rank {operator.shape[1]}, got rank {rank}"
        with pytest.raises(ValueError, match=want):
            AnalysisL1(operator)


def test_vector_validation():
    reg = L1()
    with pytest.raises(ValueError):
        reg.value(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        reg.value(np.array([np.inf, 0.0]))
    # an SVD or the analysis inner loop would not end on a non-finite row
    for reg in (Nuclear((2, 2)), AnalysisL1(oracles.tv_operator(4))):
        v = np.ones((2, 4))
        v[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            reg.step_batch(v, np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# singleton-group and identity-operator reductions


def test_singleton_groups_reduce_to_l1():
    p = 7
    group = GroupL1L2([[i] for i in range(p)])
    l1 = L1()
    rng = np.random.default_rng(17)
    for _ in range(20):
        beta = rng.normal(0.0, 2.0, p)
        gamma = float(rng.uniform(0.1, 2.0))
        assert group.value(beta) == pytest.approx(l1.value(beta), abs=1e-12)
        np.testing.assert_allclose(
            oracles.prox(group, beta, gamma), oracles.prox(l1, beta, gamma), atol=1e-12)
        thresholded = oracles.prox(l1, beta, gamma)
        assert group.descriptor(thresholded).data == l1.descriptor(thresholded).data


def test_identity_analysis_reduces_to_l1():
    p = 6
    an = AnalysisL1(np.eye(p))
    l1 = L1()
    rng = np.random.default_rng(18)
    for _ in range(10):
        beta = rng.normal(0.0, 2.0, p)
        gamma = float(rng.uniform(0.1, 2.0))
        assert an.value(beta) == pytest.approx(l1.value(beta), abs=1e-12)
        np.testing.assert_allclose(
            oracles.prox(an, beta, gamma), oracles.prox(l1, beta, gamma), atol=1e-6)
        point = oracles.prox(l1, beta, gamma)
        support = set(l1.descriptor(point).data)
        cosupport = set(an.descriptor(point).data)
        assert cosupport == set(range(p)) - support
        geo_a, geo_l = an.model(point), l1.model(point)
        assert oracles.subspace_distance(geo_a.subspace, geo_l.subspace) < 1e-10
        np.testing.assert_allclose(geo_a.model_vector, geo_l.model_vector, atol=1e-10)


# ---------------------------------------------------------------------------
# config round trips


def test_config_round_trips():
    # the file that describes each of all_regularizers
    files = [
        {"kind": "l1"},
        {"kind": "group_l1l2", "groups": [[0, 1], [2, 3], [4, 5]]},
        {"kind": "nuclear", "matrix_shape": [3, 3]},
        {"kind": "analysis_l1", "operator_shape": [6, 5],
         "operator": oracles.tv_operator(6).tolist()},
    ]
    for cfg, reg in zip(files, all_regularizers(), strict=True):
        clone = regularizer_from_config(cfg)
        assert clone.kind == reg.kind
        rng = np.random.default_rng(19)
        beta = rng.normal(size=dim_of(reg))
        assert clone.value(beta) == pytest.approx(reg.value(beta), abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        regularizer_from_config({})
    with pytest.raises(ValueError):
        regularizer_from_config({"kind": "huber"})
    with pytest.raises(ValueError):
        regularizer_from_config({"kind": "group_l1l2"})
    with pytest.raises(ValueError):
        regularizer_from_config({"kind": "nuclear"})
    with pytest.raises(ValueError):
        regularizer_from_config({"kind": "analysis_l1"})
    with pytest.raises(ValueError):
        regularizer_from_config(
            {"kind": "analysis_l1", "operator": [[1.0]], "operator_shape": [2, 1]}
        )
