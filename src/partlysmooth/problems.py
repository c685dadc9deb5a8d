"""Synthetic regression instances and their canonical parameters.

An instance is y = X beta0 + w with a design X (explicit, or rows drawn
i.i.d. from N(0, Sigma)), a structured ground truth beta0 and Gaussian
noise w.  make_design and make_signal draw X and beta0 from the numpy
generator they are given (the sweeps' set-up passes default_rng(base_seed)).

The canonical parameters of (instance, lambda) are

    mu = lambda / n,  u = X^T y / n,  Gamma = X^T X / n,

and the effective noise seen by the solver is eps = X^T w / n = u -
Gamma beta0.

draw_trials builds the problems of one sweep point, as the Monte-Carlo
sweeps do: each trial draws its canonical parameters from its own seed in
O(p^2) numbers, never X or w (a gaussian_rows trial's X^T X as an exact
Wishart draw), and every product is a stacked call whose slices are the
one-trial products, so each trial gets the bits it would get drawn alone.
Trial seed s draws from Generator(Philox(key=s)): a counter-based
generator, whose every key indexes its own stream, so one generator set to
each trial's key in turn draws a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple, Union

import numpy as np

from .linalg import check_covariance, _as_matrix, _as_vector, _check_integer, _row_dots
from .regularizers import GroupL1L2, Nuclear, Regularizer
from .solver import Quadratic

DEFAULT_AMPLITUDE_RANGE = (1.0, 2.0)


def _sample_size(n) -> int:
    n = _check_integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n


@dataclass(frozen=True, eq=False)
class DesignSpec:
    """How to produce the design matrix; the one owner of what it prepares.

    kind "explicit" carries the matrix X itself, as a read-only copy that
    every instance drawn from the spec shares; it has quad, the Quadratic of
    Gamma = X^T X / n, and root R with R R^T = X^T X.  kind "gaussian_rows"
    has n rows from N(0, covariance), no quad, and R R^T = covariance.  quad
    and root are computed on first read and kept; root read first forms
    X^T X once for both.  make_design draws gaussian rows through R, and
    draw_trials every trial's X^T w (and a fresh trial's X^T X).  A spec
    compares and hashes by identity, as its array fields have no truth value.
    """

    kind: str
    matrix: Optional[np.ndarray] = None
    covariance: Optional[np.ndarray] = None
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind == "explicit":
            if self.matrix is None:
                raise ValueError("explicit design needs a matrix")
            matrix = _as_matrix(self.matrix, "design matrix").copy()
            matrix.flags.writeable = False
            object.__setattr__(self, "matrix", matrix)
        elif self.kind == "gaussian_rows":
            if self.covariance is None or self.n is None:
                raise ValueError("gaussian_rows design needs covariance and n")
            cov = check_covariance(self.covariance)
            n = _sample_size(self.n)
            object.__setattr__(self, "covariance", cov)
            object.__setattr__(self, "n", n)
        else:
            raise ValueError(f"unknown design kind {self.kind!r}")

    @cached_property
    def quad(self) -> Optional[Quadratic]:
        x = self.matrix
        return None if x is None else Quadratic(x.T @ x / x.shape[0])

    @cached_property
    def root(self) -> np.ndarray:
        x = self.matrix
        square = self.covariance if x is None else x.T @ x
        if x is not None:  # the same product gives quad, unless quad was read first
            self.__dict__.setdefault("quad", Quadratic(square / x.shape[0]))
        # R R^T = square, tiny negative eigenvalues from roundoff clipped
        vals, vecs = np.linalg.eigh(square)
        root = vecs * np.sqrt(np.clip(vals, 0.0, None))
        root.flags.writeable = False
        return root

    @classmethod
    def explicit(cls, matrix) -> "DesignSpec":
        return cls(kind="explicit", matrix=matrix)

    @classmethod
    def gaussian(cls, covariance, n: int) -> "DesignSpec":
        return cls(kind="gaussian_rows", covariance=covariance, n=n)


# the SignalSpec fields that count something
_COUNTS = ("p", "support_size", "active_groups", "rank", "segments")


@dataclass(frozen=True, eq=False)
class SignalSpec:
    """How to produce the ground-truth vector.

    Kinds: "explicit" (the vector itself), "sparse" (support_size entries,
    random support and signs, amplitudes uniform in amplitude_range),
    "group_sparse" (active_groups groups filled the same way),
    "low_rank" (a p0 x p0 matrix of the given rank with singular values in
    amplitude_range, vectorized column-major) and "piecewise_constant"
    (segments blocks; consecutive levels differ by an amplitude_range step,
    so every breakpoint is genuinely active).  A spec compares and hashes by
    identity, as beta0 has no truth value.
    """

    kind: str
    beta0: Optional[np.ndarray] = None
    p: Optional[int] = None
    support_size: Optional[int] = None
    active_groups: Optional[int] = None
    rank: Optional[int] = None
    segments: Optional[int] = None
    amplitude_range: Tuple[float, float] = DEFAULT_AMPLITUDE_RANGE

    def __post_init__(self):
        lo, hi = self.amplitude_range
        if not (0 < lo <= hi):
            raise ValueError(f"amplitude range must satisfy 0 < lo <= hi, got {self.amplitude_range}")
        for name in _COUNTS:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _check_integer(getattr(self, name), name))
        if self.kind == "explicit":
            if self.beta0 is None:
                raise ValueError("explicit signal needs beta0")
            v = _as_vector(self.beta0, name="beta0")
            object.__setattr__(self, "beta0", v)
            object.__setattr__(self, "p", v.shape[0])
        elif self.kind == "sparse":
            if self.p is None or self.support_size is None:
                raise ValueError("sparse signal needs p and support_size")
            if not 0 <= self.support_size <= self.p:
                raise ValueError("support_size out of range")
        elif self.kind == "group_sparse":
            if self.active_groups is None:
                raise ValueError("group_sparse signal needs active_groups")
        elif self.kind == "low_rank":
            if self.rank is None:
                raise ValueError("low_rank signal needs rank")
        elif self.kind == "piecewise_constant":
            if self.p is None or self.segments is None:
                raise ValueError("piecewise_constant signal needs p and segments")
            if not 1 <= self.segments <= self.p:
                raise ValueError("segments out of range")
        else:
            raise ValueError(f"unknown signal kind {self.kind!r}")

    @classmethod
    def explicit(cls, beta0) -> "SignalSpec":
        return cls(kind="explicit", beta0=beta0)


def _amplitudes(rng, size, amplitude_range):
    lo, hi = amplitude_range
    return rng.uniform(lo, hi, size=size) * rng.choice([-1.0, 1.0], size=size)


def make_design(spec: DesignSpec, rng) -> np.ndarray:
    """The design matrix: an explicit spec's own read-only matrix, or n fresh rows."""
    if spec.kind == "explicit":
        return spec.matrix
    z = rng.standard_normal((spec.n, spec.covariance.shape[0]))
    return z @ spec.root.T


def make_signal(spec: SignalSpec, reg: Regularizer, rng) -> np.ndarray:
    """Draw a ground truth matching the regularizer's structure."""
    if spec.kind == "explicit":
        return spec.beta0.copy()
    if spec.kind == "sparse":
        beta = np.zeros(spec.p)
        support = rng.choice(spec.p, size=spec.support_size, replace=False)
        beta[np.sort(support)] = _amplitudes(rng, spec.support_size, spec.amplitude_range)
        return beta
    if spec.kind == "group_sparse":
        if not isinstance(reg, GroupL1L2):
            raise ValueError("group_sparse signals need a group regularizer")
        if not 0 <= spec.active_groups <= len(reg.groups):
            raise ValueError("active_groups out of range")
        beta = np.zeros(reg.p)
        chosen = rng.choice(len(reg.groups), size=spec.active_groups, replace=False)
        for i in np.sort(chosen):
            g = reg.groups[i]
            beta[g] = _amplitudes(rng, g.size, spec.amplitude_range)
        return beta
    if spec.kind == "low_rank":
        if not isinstance(reg, Nuclear):
            raise ValueError("low_rank signals need a nuclear-norm regularizer")
        p0 = reg.shape[0]
        if not 0 <= spec.rank <= p0:
            raise ValueError("rank out of range")
        qu, _ = np.linalg.qr(rng.standard_normal((p0, spec.rank)))
        qv, _ = np.linalg.qr(rng.standard_normal((p0, spec.rank)))
        lo, hi = spec.amplitude_range
        sv = rng.uniform(lo, hi, size=spec.rank)
        return ((qu * sv) @ qv.T).ravel(order="F")
    if spec.kind == "piecewise_constant":
        # segment levels follow a signed random walk so adjacent levels
        # always differ by at least the lower amplitude bound
        sizes = _segment_sizes(spec.p, spec.segments, rng)
        steps = _amplitudes(rng, spec.segments, spec.amplitude_range)
        levels = np.cumsum(steps)
        return np.repeat(levels, sizes)
    raise ValueError(f"unknown signal kind {spec.kind!r}")


def _segment_sizes(p, k, rng):
    # k positive integers summing to p, uniform over compositions
    if k == 1:
        return np.array([p])
    cuts = np.sort(rng.choice(p - 1, size=k - 1, replace=False)) + 1
    edges = np.concatenate([[0], cuts, [p]])
    return np.diff(edges)


_SEED_BOUND = 1 << 128  # a seed is a 128-bit Philox key
_WORD = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class TrialDraws:
    """The trials of one sweep point, as draw_trials returns them.

    Trial k's problem is (mu, u[k], Gamma_k), with Gamma_k the explicit
    design's own quad, which every trial shares, or the k-th matrix of the
    T x p x p stack gamma; eps_norms[k] is the norm of trial k's X^T w / n.
    """

    mu: float
    u: np.ndarray
    gamma: Union[Quadratic, np.ndarray]
    eps_norms: np.ndarray


def draw_trials(
    design: DesignSpec,
    beta0,
    noise_sigma: float,
    mu: float,
    seeds,
    n: Optional[int] = None,
) -> TrialDraws:
    """The problems of one sweep point, one trial per seed, computed as stacks.

    Trial k is the problem y = X beta0 + w at lambda = mu * n, drawn from
    the stream of Generator(Philox(key=seeds[k])) (the explicit signal
    beta0 draws nothing): theta = (mu, X^T y / n, X^T X / n), with
    ||X^T w / n|| alongside.  The trial draws theta, never X or w: given a
    p x k M with M M^T = X^T X, its last draw is k normals z, and
    eps = X^T w / n = sigma M z / n (the law of X^T w / n given X) and
    u = Gamma beta0 + eps.  The problems come as the arrays that
    forward_backward_batch takes, which checks them.

    An explicit design's trial draws only z, with M the design's root and
    k = p, and its Gamma is the design's quad, one Quadratic for every
    call; n, if given, must be its row count.

    A gaussian_rows trial draws no design; n, if given, is its sample size
    in place of design.n, so that one design's root serves every size.
    With k = min(n, p) it draws, in this order, k chi-squares with n,
    n - 1, ..., n - k + 1 degrees of freedom, the normals of the strict
    upper trapezoid of a k x p matrix B (row by row) whose diagonal is the
    chi-squares' square roots, and z.  With M = R B^T, R the design's root,
    and Gamma = M M^T / n, (Gamma, eps) has the joint law of X^T X / n and
    X^T w / n for n rows from N(0, covariance), n < p included (Bartlett's
    decomposition, singular when n < p), in O(p^2) numbers whatever n.
    Each trial has its own Gamma, in a T x p x p stack.  One standard_normal
    call draws B's normals and z: the numbers of two calls in turn.

    Each product is one stacked call whose slices are the 2-d calls of one
    trial drawn alone, so each trial has those bits.

    Each seed must be an integer in [0, 2^128), a 128-bit Philox key.  One
    generator, set to each trial's key at counter 0 in turn, draws the
    trials.
    """
    seeds = [_check_integer(seed, "seed") for seed in seeds]
    if seeds and min(seeds) < 0:
        raise ValueError(f"seed must be >= 0, got {min(seeds)}")
    if seeds and max(seeds) >= _SEED_BOUND:
        raise ValueError(f"seed must be < 2**128, got {max(seeds)}")
    for name, value in (("noise_sigma", noise_sigma), ("mu", mu)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    beta0 = _as_vector(beta0, name="beta0")
    explicit = design.kind == "explicit"
    own_n = design.matrix.shape[0] if explicit else design.n
    n = own_n if n is None else _sample_size(n)
    if explicit and n != own_n:
        raise ValueError(f"the explicit design has n={own_n} rows, got n={n}")
    p = design.root.shape[0]
    if p != beta0.shape[0]:
        raise ValueError(f"design has p={p} columns but the signal has length {beta0.shape[0]}")
    lam = float(mu) * n
    if not np.isfinite(lam):
        raise ValueError(f"lambda = mu * n must be finite, got mu={mu} and n={n}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    count = len(seeds)
    k = p if explicit else min(n, p)
    diag = np.arange(k)
    # B's strict upper trapezoid; an explicit design's trial draws no B
    rows, cols = np.triu_indices(0 if explicit else k, 1, p)
    chi, normals = np.empty((count, k)), np.empty((count, rows.size + k))
    dof = (n - diag).astype(float)  # the chi-squares' degrees of freedom, as chisquare reads them
    # one generator, set to each trial's key in turn: Generator(Philox(key=seed))
    # but for its set-up, with its counter and buffer fresh
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    key = [0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for t, seed in enumerate(seeds):
        key[:] = seed & _WORD, seed >> 64
        bits.state = state
        if not explicit:
            chi[t] = rng.chisquare(dof)
        rng.standard_normal(out=normals[t])
    z = np.ascontiguousarray(normals[:, rows.size:])  # laid out as a lone trial's z
    if explicit:
        m, gamma = design.root, design.quad.gamma
    else:
        # Bartlett's decomposition, singular when n < p: X = Z R^T with
        # Z^T Z = B^T B, B the k x p upper trapezoid of Z's QR factor, so
        # X^T X = M M^T with M = R B^T
        b = np.zeros((count, k, p))
        b[:, diag, diag] = np.sqrt(chi)
        b[:, rows, cols] = normals[:, :rows.size]
        m = np.matmul(design.root, b.transpose(0, 2, 1))
        gamma = np.matmul(m, m.transpose(0, 2, 1))
        gamma /= n
    with np.errstate(over="ignore"):  # refused below, by name
        eps = noise_sigma * np.matmul(m, z[..., None])[..., 0] / n
        eps_norms = np.sqrt(_row_dots(eps, eps))
    if not np.isfinite(eps_norms).all():
        raise ValueError(f"X^T w / n overflows at noise_sigma={noise_sigma}")
    u = np.matmul(gamma, beta0) + eps
    return TrialDraws(mu=lam / n, u=u, gamma=design.quad or gamma, eps_norms=eps_norms)


def load_matrix_csv(path) -> np.ndarray:
    """Read a dense matrix from a comma-separated text file."""
    m = np.loadtxt(path, delimiter=",", ndmin=2)
    return _as_matrix(m, f"matrix from {path}")
