"""Gauge action, Coulomb fixing, projectors, and the invariant potential."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaugereduce.gauge import (AdaptedCoords, FieldPair, faddeev_popov, from_adapted,
                               gauge_transform, green_divergence, killing_vector,
                               potential, rotate, solve_gauge_parameter, to_adapted,
                               transverse_projector)
from gaugereduce.lattice import Lattice, flat
from gaugereduce.orbit import apply_N_f, horizontal_metric
from references import divergence_matrix, gradient_matrix


# (1, 2) has Phi = 0 and so green = 0; odd and even N otherwise
GREEN_LATTICES = [(1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (2, 16)]


def random_pair(lat, rng, g0=0.8):
    return FieldPair(lat.random_vector(rng), lat.random_doublet(rng), g0)


def test_field_pair_validation():
    with pytest.raises(ValueError):
        FieldPair(np.zeros((1, 4)), np.zeros((2, 4)), g0=-1.0)
    with pytest.raises(ValueError):
        FieldPair(np.full((1, 4), np.inf), np.zeros((2, 4)), g0=1.0)


def test_gauge_transform_identity():
    lat = Lattice(2, 4)
    rng = np.random.default_rng(0)
    p = random_pair(lat, rng)
    q = gauge_transform(lat, p, np.zeros(lat.n_sites))
    assert_allclose(q.A, p.A, atol=0)
    assert_allclose(q.f, p.f, atol=0)


def test_gauge_transform_constant_eps():
    lat = Lattice(2, 4)
    rng = np.random.default_rng(1)
    p = random_pair(lat, rng)
    c = 0.7
    q = gauge_transform(lat, p, np.full(lat.n_sites, c))
    assert_allclose(q.A, p.A, atol=0)
    assert_allclose(q.f, rotate(p.f, p.g0 * c), atol=0)


def test_gauge_transform_abelian_composition():
    lat = Lattice(2, 4)
    rng = np.random.default_rng(2)
    p = random_pair(lat, rng)
    e1 = lat.random_scalar(rng)
    e2 = lat.random_scalar(rng)
    q12 = gauge_transform(lat, gauge_transform(lat, p, e1), e2)
    q = gauge_transform(lat, p, e1 + e2)
    assert np.abs(q12.A - q.A).max() <= 1e-12
    assert np.abs(q12.f - q.f).max() <= 1e-12


def test_killing_vector_zero_cases():
    lat = Lattice(2, 3)
    rng = np.random.default_rng(3)
    p = random_pair(lat, rng)
    kA, kf = killing_vector(lat, p, np.zeros(lat.n_sites))
    assert_allclose(kA, 0.0, atol=0)
    assert_allclose(kf, 0.0, atol=0)
    p0 = FieldPair(p.A, np.zeros((2, lat.n_sites)), p.g0)
    _, kf0 = killing_vector(lat, p0, lat.random_scalar(rng))
    assert_allclose(kf0, 0.0, atol=0)


def test_killing_vector_finite_difference():
    # d/dt of the group action at t=0, step 1e-6, relative 1e-5
    lat = Lattice(2, 4)
    rng = np.random.default_rng(4)
    p = random_pair(lat, rng)
    eps = lat.random_scalar(rng)
    kA, kf = killing_vector(lat, p, eps)
    h = 1e-6
    q = gauge_transform(lat, p, h * eps)
    fdA = (q.A - p.A) / h
    fdf = (q.f - p.f) / h
    assert np.abs(fdA - kA).max() <= 1e-5 * max(1.0, np.abs(kA).max())
    assert np.abs(fdf - kf).max() <= 1e-5 * max(1.0, np.abs(kf).max())


def test_solve_gauge_parameter_transverse_gives_zero():
    lat = Lattice(2, 4)
    rng = np.random.default_rng(5)
    P = transverse_projector(lat)
    A = (P @ flat(lat.random_vector(rng))).reshape(lat.dim, lat.n_sites)
    assert np.abs(solve_gauge_parameter(lat, A)).max() <= 1e-12


def test_pure_gauge_recovery_odd_n():
    # a(grad b) = b for mean-zero b; exact on odd-N lattices where the
    # derivative kernel is the constants alone
    lat = Lattice(2, 5)
    rng = np.random.default_rng(6)
    b = lat.random_scalar(rng)
    b -= b.mean()
    a = solve_gauge_parameter(lat, lat.gradient(b))
    assert np.abs(a - b).max() <= 1e-10


@pytest.mark.parametrize("s,n", [(2, 4), (2, 5), (1, 6)])
def test_gauge_parameter_residual(s, n):
    lat = Lattice(s, n)
    rng = np.random.default_rng(7)
    A = lat.random_vector(rng)
    a = solve_gauge_parameter(lat, A)
    assert abs(a.mean()) <= 1e-14
    assert np.abs(lat.divergence(A - lat.gradient(a))).max() <= 1e-10


def test_to_adapted_fixed_point():
    lat = Lattice(2, 4)
    rng = np.random.default_rng(8)
    P = transverse_projector(lat)
    A = (P @ flat(lat.random_vector(rng))).reshape(lat.dim, lat.n_sites)
    p = FieldPair(A, lat.random_doublet(rng), 0.8)
    c = to_adapted(lat, p)
    assert np.abs(c.A_star - p.A).max() <= 1e-12
    assert np.abs(c.a).max() <= 1e-12
    assert np.abs(c.f_tilde - p.f).max() <= 1e-12


def test_adapted_round_trip():
    lat = Lattice(2, 4)
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_pair(lat, rng)
        c = to_adapted(lat, p)
        assert np.abs(lat.divergence(c.A_star)).max() <= 1e-10
        q = from_adapted(lat, c, p.g0)
        assert np.abs(q.A - p.A).max() <= 1e-10
        assert np.abs(q.f - p.f).max() <= 1e-10


def test_section_is_orbit_invariant_odd_n():
    # mean-zero gauge motion changes only the gauge parameter of the split
    lat = Lattice(2, 5)
    rng = np.random.default_rng(10)
    p = random_pair(lat, rng)
    eps = lat.random_scalar(rng)
    eps -= eps.mean()
    c1 = to_adapted(lat, p)
    c2 = to_adapted(lat, gauge_transform(lat, p, eps))
    assert np.abs(c2.A_star - c1.A_star).max() <= 1e-9
    assert np.abs(c2.f_tilde - c1.f_tilde).max() <= 1e-9
    assert np.abs((c2.a - c1.a) - eps).max() <= 1e-9


def test_transverse_projector_identities():
    lat = Lattice(2, 4)
    rng = np.random.default_rng(11)
    P = transverse_projector(lat)
    G = gradient_matrix(lat)
    assert np.abs(P - P.T).max() <= 1e-14
    assert np.abs(P @ P - P).max() <= 1e-10
    assert np.abs(P @ G).max() <= 1e-10
    assert np.abs(divergence_matrix(lat) @ P).max() <= 1e-10
    A = flat(lat.random_vector(rng))
    assert np.abs(lat.divergence((P @ A).reshape(lat.dim, -1))).max() <= 1e-10


def test_killing_orthogonality_after_projection():
    # gauge directions are orthogonal to the projected potential sector
    lat = Lattice(2, 4)
    rng = np.random.default_rng(12)
    P = transverse_projector(lat)
    v = (P @ flat(lat.random_vector(rng))).reshape(lat.dim, lat.n_sites)
    for _ in range(5):
        eps = lat.random_scalar(rng)
        assert abs(lat.spacing ** lat.dim * np.sum(v * lat.gradient(eps))) <= 1e-10


def test_projector_N_blocks():
    # the frame (P, N_f): P is idempotent, and apply_N_f, the map the reduced
    # step runs, vanishes at f~ = 0 and on transverse directions (P's columns)
    lat = Lattice(2, 4)
    rng = np.random.default_rng(13)
    f = lat.random_doublet(rng)
    P = transverse_projector(lat)
    assert np.abs(P @ P - P).max() <= 1e-10
    zero = np.zeros((2, lat.n_sites))
    assert_allclose(apply_N_f(lat, zero, 0.8, lat.random_vector(rng)), 0.0, atol=0)
    columns = P.T                       # one transverse direction per row
    on_P = apply_N_f(lat, np.broadcast_to(f, (len(columns), 2, lat.n_sites)), 0.8, columns)
    assert np.abs(on_P).max() <= 1e-12


def test_faddeev_popov_inverse_odd_n():
    lat = Lattice(2, 5)
    fp = faddeev_popov(lat)
    V = lat.n_sites
    target = np.eye(V) - np.ones((V, V)) / V
    assert np.abs(lat.fp_matrix() @ fp.green - target).max() <= 1e-10
    assert np.abs(fp.green - fp.green.T).max() <= 1e-14
    assert np.abs(fp.green @ np.ones(V)).max() <= 1e-12
    # two-sided inverse on mean-zero functions
    rng = np.random.default_rng(14)
    u = lat.random_scalar(rng)
    u -= u.mean()
    assert np.abs(fp.green @ (lat.fp_matrix() @ u) - u).max() <= 1e-10
    assert np.abs(lat.fp_matrix() @ (fp.green @ u) - u).max() <= 1e-10
    # the closed-form Green function is the eigh-built pseudo-inverse, and
    # Phi green is the pseudo-identity I - KK^T, odd and even N alike
    for s, n in GREEN_LATTICES:
        lat = Lattice(s, n)
        fp = faddeev_popov(lat)
        w, U = np.linalg.eigh(lat.fp_matrix())
        keep = np.abs(w) > 1e-10 * max(np.abs(w).max(), 1.0)
        pinv = (U[:, keep] / w[keep]) @ U[:, keep].T
        assert np.abs(fp.green - pinv).max() <= 1e-12 * np.abs(pinv).max()
        target = np.eye(lat.n_sites) - fp.kernel @ fp.kernel.T
        assert np.abs(lat.fp_matrix() @ fp.green - target).max() <= 1e-12


def test_faddeev_popov_even_n_kernel():
    # even N carries the staggered doubling modes in the kernel; the
    # pseudo-identity is the complement of the analytic kernel projector
    lat = Lattice(2, 4)
    fp = faddeev_popov(lat)
    B = lat.zero_mode_basis()
    assert fp.kernel.shape[1] == B.shape[1] == 4
    target = np.eye(lat.n_sites) - B @ B.T
    assert np.abs(lat.fp_matrix() @ fp.green - target).max() <= 1e-10
    # the kernel spans zero_mode_basis; horizontal_metric's reduced basis
    # completes it orthonormally
    rng = np.random.default_rng(15)
    for s, n in GREEN_LATTICES:
        lat = Lattice(s, n)
        fp, B = faddeev_popov(lat), lat.zero_mode_basis()
        V, k = lat.n_sites, B.shape[1]
        c = AdaptedCoords(np.zeros((s, V)), lat.random_doublet(rng), np.zeros(V))
        R = horizontal_metric(lat, c, 0.8).basis
        assert fp.kernel.shape == (V, k) and R.shape == (V, V - k)
        assert np.abs(fp.kernel @ fp.kernel.T - B @ B.T).max() <= 1e-14
        assert np.abs(R.T @ R - np.eye(V - k)).max(initial=0.0) <= 1e-14
        assert np.abs(R.T @ B).max(initial=0.0) <= 1e-14


@pytest.mark.parametrize("h", [0.01, 1.0, 100.0])
def test_green_diagonal_is_one_number(h):
    # green(x, y) = g(x - y) is a circulant, so its diagonal is bitwise the
    # one number G0 = green[0, 0]; the reduced drift reads G0 alone
    for s, n in GREEN_LATTICES + [(1, 512), (3, 8)]:
        green = faddeev_popov(Lattice(s, n, h)).green
        assert np.array_equal(np.diagonal(green), np.full(green.shape[0], green[0, 0]))


def test_lattice_operators_built_once_per_lattice():
    # each cached operator is built on first read; a second read returns the
    # same object, and another lattice of the same shape builds its own
    lat, other = Lattice(2, 4), Lattice(2, 4)
    for build in (Lattice.fp_matrix, faddeev_popov, transverse_projector, green_divergence):
        first = build(lat)
        assert build(lat) is first
        assert build(other) is not first


def test_potential_zero_configuration():
    lat = Lattice(2, 4)
    p = FieldPair(np.zeros((2, 16)), np.stack([np.full(16, 1.3), np.full(16, -0.4)]), 0.8)
    assert potential(lat, p) == 0.0


def test_potential_gauge_invariance():
    # master test of the module: exact invariance under the group action
    lat = Lattice(2, 4)
    rng = np.random.default_rng(15)
    v0 = lambda A, f: 0.25 * (f[0] ** 2 + f[1] ** 2) ** 2
    for _ in range(20):
        p = random_pair(lat, rng)
        eps = rng.standard_normal(lat.n_sites)
        v1 = potential(lat, p, v0)
        v2 = potential(lat, gauge_transform(lat, p, eps), v0)
        assert abs(v2 - v1) / (1.0 + abs(v1)) <= 1e-9


def test_potential_field_strength_independent_loop():
    # f = 0, V0 = 0: compare against an explicit per-site loop oracle
    lat = Lattice(2, 4)
    rng = np.random.default_rng(16)
    A = lat.random_vector(rng)
    p = FieldPair(A, np.zeros((2, lat.n_sites)), 0.8)
    tab = lat.neighbor_table
    h = lat.spacing
    total = 0.0
    for x in range(lat.n_sites):
        for i in range(lat.dim):
            for j in range(lat.dim):
                diAj = (A[j][tab[x, i, 0]] - A[j][tab[x, i, 1]]) / (2 * h)
                djAi = (A[i][tab[x, j, 0]] - A[i][tab[x, j, 1]]) / (2 * h)
                total += 0.25 * (diAj - djAi) ** 2
    assert potential(lat, p) == pytest.approx(total * h ** lat.dim, rel=1e-12)


@pytest.mark.parametrize("s,n,h", [(1, 5, 0.5), (2, 4, 1.0), (3, 3, 1.3)])
def test_potential_stack_matches_single_states(s, n, h):
    # a stack (3, 2, ...) of configurations gives each state's single-state
    # value bitwise, also with a sitewise v0; mismatched stacks are refused
    lat = Lattice(s, n, h)
    rng = np.random.default_rng(18)
    A = rng.standard_normal((3, 2, s, lat.n_sites))
    f = rng.standard_normal((3, 2, 2, lat.n_sites))
    v0 = lambda A, f: 0.3 * (f[..., 0, :] ** 2 + f[..., 1, :] ** 2) ** 2
    for pot in (None, v0):
        stacked = potential(lat, FieldPair(A, f, 0.8), pot)
        single = [[potential(lat, FieldPair(A[i, k], f[i, k], 0.8), pot) for k in range(2)]
                  for i in range(3)]
        assert stacked.shape == (3, 2)
        assert np.array_equal(stacked, np.array(single))
    with pytest.raises(ValueError):
        potential(lat, FieldPair(A[:2], f, 0.8))
    with pytest.raises(ValueError):
        potential(lat, FieldPair(A[0, 0, :, 1:], f[0, 0], 0.8))


def test_potential_spacing_and_v0():
    lat = Lattice(1, 6, spacing=0.5)
    rng = np.random.default_rng(17)
    p = random_pair(lat, rng)
    base = potential(lat, p)
    v0 = lambda A, f: np.ones(lat.n_sites)
    assert potential(lat, p, v0) == pytest.approx(base + lat.n_sites * 0.5, rel=1e-12)
    eps = lat.random_scalar(rng)
    v1 = potential(lat, p)
    v2 = potential(lat, gauge_transform(lat, p, eps))
    assert abs(v2 - v1) / (1 + abs(v1)) <= 1e-9
