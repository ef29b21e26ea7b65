"""Orbit geometry: metric, sigma derivatives, connection, drifts, Jacobian.

The expensive claims are all checked against independent routes: finite
differences of log det D for the sigma derivatives, finite differences of
the degenerate horizontal-metric blocks for the Christoffel contraction,
dense matrices for the matrix-free connection and N_f, an explicit index
loop for j2, the orbit-metric inverse forms for the closed-form drift,
Laplace term and J, and the pre-derived two-site closed form for the
reduction Jacobian.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaugereduce.gauge import (AdaptedCoords, FieldPair, faddeev_popov, gauge_transform,
                               jbar, killing_doublet_matrix, killing_vector, potential,
                               to_adapted, transverse_projector)
from gaugereduce.lattice import Lattice, LatticeSpec, flat
from gaugereduce.orbit import (HorizontalMetric, OrbitGeometry, SingularOrbitMetric,
                               apply_N_f, horizontal_metric, orbit_metric, reduced_drift,
                               scalar_drift)
from references import dense_N_f, gradient_matrix, hess_ff


def adapted(lat, f):
    return AdaptedCoords(np.zeros((lat.dim, lat.n_sites)), f, np.zeros(lat.n_sites))


# ----------------------------------------------------------------------
# orbit metric
# ----------------------------------------------------------------------

def test_single_site_lattice_refused():
    with pytest.raises(ValueError):
        LatticeSpec(1, 1)


def test_orbit_metric_zero_field_raises():
    lat = Lattice(1, 4)
    with pytest.raises(SingularOrbitMetric):
        orbit_metric(lat, np.zeros((2, 4)), 0.8)


def test_orbit_metric_uniform_spectrum():
    # uniform |f|^2 = c shifts the derivative-operator spectrum by g0^2 c
    lat = Lattice(2, 4)
    g0, c = 0.7, 1.9
    f = np.stack([np.full(16, np.sqrt(c * 0.4)), np.full(16, -np.sqrt(c * 0.6))])
    om = orbit_metric(lat, f, g0)
    G = gradient_matrix(lat)
    base = np.linalg.eigvalsh(G.T @ G)
    assert_allclose(np.linalg.eigvalsh(om.D), base + g0 ** 2 * c, atol=1e-10)


def test_orbit_metric_never_inverts_geometry_inverts_once(monkeypatch):
    # orbit_metric (and so the sigma' finite differences of `check`) is
    # inverse-free, and so are the drift and N_f; a geometry inverts once,
    # and its maps only read Dinv
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda M: calls.append(1) or inv(M))
    lat = Lattice(2, 3)
    rng = np.random.default_rng(0)
    f = lat.random_doublet(rng)
    om = orbit_metric(lat, f, 0.8)
    assert om.logdet == pytest.approx(np.linalg.slogdet(om.D)[1], abs=1e-12)
    vA, vf = lat.random_vector(rng), lat.random_doublet(rng)
    scalar_drift(lat, f, 0.8), apply_N_f(lat, f, 0.8, vA)
    assert len(calls) == 0
    geo = OrbitGeometry(lat, f, 0.8)
    assert len(calls) == 1
    geo.connection(vA, vf), geo.horizontal(vA, vf), geo.jacobian(1.0, 1.0), hess_ff(geo)
    assert len(calls) == 1


def test_orbit_metric_inverse_and_logdet():
    lat = Lattice(2, 3)
    rng = np.random.default_rng(0)
    geo = OrbitGeometry(lat, lat.random_doublet(rng), 0.8)
    om = geo.metric
    assert np.abs(om.D @ geo.Dinv - np.eye(lat.n_sites)).max() <= 1e-10
    assert np.abs(om.chol @ om.chol.T - om.D).max() <= 1e-12
    evals = np.linalg.eigvalsh(om.D)
    assert abs(om.logdet - np.sum(np.log(evals))) <= 1e-8


@pytest.mark.parametrize("s,n", [(1, 5), (2, 3), (2, 4), (3, 4), (3, 5)])
def test_stacked_geometry_matches_single_states(s, n):
    # a (3, 2, V) stack gives, state by state, bitwise the Dinv, drift and J
    # of the one-state geometry, its other Jacobian terms within 1e-12
    # relative, and exactly its Jbar f~; Dinv is exactly symmetric and agrees
    # with the inverse of D within 1e-13 relative
    lat = Lattice(s, n)
    rng = np.random.default_rng(40 + 10 * s + n)
    fs = rng.standard_normal((3, 2, lat.n_sites))
    geo = OrbitGeometry(lat, fs, 0.8)
    df = scalar_drift(lat, fs, 0.8)
    rep = geo.jacobian(1.1, 0.9)
    assert df.shape == (3, 2, lat.n_sites)
    assert np.array_equal(geo.jf, jbar(fs))
    assert np.array_equal(geo.Dinv, np.swapaxes(geo.Dinv, -2, -1))
    inv = np.linalg.inv(geo.metric.D)
    assert np.abs(geo.Dinv - inv).max() <= 1e-13 * np.abs(inv).max()
    for k in range(3):
        assert np.array_equal(jbar(fs)[k], np.array([[0.0, 1.0], [-1.0, 0.0]]) @ fs[k])
        one = OrbitGeometry(lat, fs[k], 0.8)
        df1 = scalar_drift(lat, fs[k], 0.8)
        rep1 = one.jacobian(1.1, 0.9)
        assert np.array_equal(geo.Dinv[k], one.Dinv)
        assert np.array_equal(df[k], df1)
        assert rep.J[k] == rep1.J
        for name in ("J", "laplace_term", "grad_term", "logdet"):
            want = getattr(rep1, name)
            assert abs(getattr(rep, name)[k] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("s,n,h", [(1, 3, 1.0), (2, 4, 0.01), (3, 5, 100.0), (1, 512, 1.0)])
def test_scalar_drift_is_the_diagonal_of_green_times_f(s, n, h):
    # the drift reads G0 = green[0, 0]; on stacks it is bitwise the sitewise
    # product with the whole diagonal of green
    lat = Lattice(s, n, h)
    rng = np.random.default_rng(60 + s + n)
    green = faddeev_popov(lat).green
    for g0 in (0.8, 3.0, 1e-7):
        for shape in [(2, lat.n_sites), (5, 2, lat.n_sites), (2, 3, 2, lat.n_sites)]:
            f = rng.standard_normal(shape)
            want = (0.5 * g0 ** 2 * np.diagonal(green)) * f
            assert np.array_equal(scalar_drift(lat, f, g0), want)


def test_orbit_metric_stack_refuses_a_degenerate_state():
    # one zero state in a stack fails the whole stack; the others factorize
    lat = Lattice(1, 4)
    rng = np.random.default_rng(41)
    fs = rng.standard_normal((2, 3, 2, 4))
    fs[1, 2] = 0.0
    with pytest.raises(SingularOrbitMetric):
        orbit_metric(lat, fs, 0.8)
    keep = np.ones((2, 3), dtype=bool)
    keep[1, 2] = False
    orbit_metric(lat, fs[keep], 0.8)


# ----------------------------------------------------------------------
# sigma derivatives
# ----------------------------------------------------------------------

def _sigma_fd(lat, f, g0, d=1e-5):
    out = np.zeros_like(f)
    for a in range(2):
        for x in range(lat.n_sites):
            fp = f.copy(); fp[a, x] += d
            fm = f.copy(); fm[a, x] -= d
            out[a, x] = (orbit_metric(lat, fp, g0).logdet
                         - orbit_metric(lat, fm, g0).logdet) / (2 * d)
    return out


@pytest.mark.parametrize("s,n", [(1, 3), (1, 4), (2, 3)])
def test_sigma_gradient_matches_finite_differences(s, n):
    lat = Lattice(s, n)
    rng = np.random.default_rng(1)
    f = lat.random_doublet(rng)
    geo = OrbitGeometry(lat, f, 0.8)
    fd = _sigma_fd(lat, f, 0.8)
    assert np.linalg.norm(fd - geo.grad_f) / np.linalg.norm(fd) <= 1e-6


def test_sigma_hessian_matches_finite_differences():
    lat = Lattice(1, 4)
    rng = np.random.default_rng(2)
    f = lat.random_doublet(rng)
    g0, d = 0.8, 1e-5
    geo = OrbitGeometry(lat, f, g0)
    V = lat.n_sites
    fd = np.zeros((2, V, 2, V))
    for b in range(2):
        for y in range(V):
            fp = f.copy(); fp[b, y] += d
            fm = f.copy(); fm[b, y] -= d
            dp = OrbitGeometry(lat, fp, g0).grad_f
            dm = OrbitGeometry(lat, fm, g0).grad_f
            fd[:, :, b, y] = (dp - dm) / (2 * d)
    fd = fd.reshape(2 * V, 2 * V)
    hess = hess_ff(geo)
    assert np.linalg.norm(fd - hess) / np.linalg.norm(fd) <= 1e-4
    assert np.abs(hess - hess.T).max() <= 1e-12


def test_sigma_invariant_under_global_rotation():
    lat = Lattice(2, 3)
    rng = np.random.default_rng(3)
    f = lat.random_doublet(rng)
    th = 0.9
    fr = np.stack([np.cos(th) * f[0] + np.sin(th) * f[1],
                   -np.sin(th) * f[0] + np.cos(th) * f[1]])
    s1 = orbit_metric(lat, f, 0.8)
    s2 = orbit_metric(lat, fr, 0.8)
    assert abs(s1.logdet - s2.logdet) <= 1e-10


# ----------------------------------------------------------------------
# mechanical connection
# ----------------------------------------------------------------------

def test_connection_reproduces_gauge_parameter():
    lat = Lattice(2, 4)
    rng = np.random.default_rng(4)
    f = lat.random_doublet(rng)
    geo = OrbitGeometry(lat, f, 0.8)
    p = FieldPair(np.zeros((2, 16)), f, 0.8)
    for _ in range(5):
        eps = lat.random_scalar(rng)
        kA, kf = killing_vector(lat, p, eps)
        assert np.abs(geo.connection(kA, kf) - eps).max() <= 1e-9


@pytest.mark.parametrize("s,n", [(1, 4), (2, 3)])
def test_connection_matches_dense_blocks(s, n):
    # the matrix-free connection of each unit tangent vector is the column of
    # the dense one-form Dinv [grad^T | K_f^T], for one state and for every
    # state of a stack with its own tangent vectors
    lat = Lattice(s, n)
    V, sV = lat.n_sites, lat.dim * lat.n_sites
    rng = np.random.default_rng(5 + s)
    fs = rng.standard_normal((3, 2, V))
    g0 = 0.7
    vAs, vfs = rng.standard_normal((3, sV)), rng.standard_normal((3, 2, V))
    stacked = OrbitGeometry(lat, fs, g0).connection(vAs, vfs)
    unit = np.eye(sV + 2 * V)
    for k in range(3):
        geo = OrbitGeometry(lat, fs[k], g0)
        dense = geo.Dinv @ np.hstack([gradient_matrix(lat).T,
                                      killing_doublet_matrix(lat, fs[k], g0).T])
        cols = np.stack([geo.connection(e[:sV], e[sV:].reshape(2, V)) for e in unit], axis=1)
        assert np.abs(cols - dense).max() <= 1e-14 * np.abs(dense).max()
        want = dense @ np.concatenate([vAs[k], flat(vfs[k])])
        assert np.abs(stacked[k] - want).max() <= 1e-13 * np.abs(want).max()


def test_connection_annihilates_horizontal_projection():
    lat = Lattice(2, 4)
    rng = np.random.default_rng(7)
    f = lat.random_doublet(rng)
    geo = OrbitGeometry(lat, f, 0.8)
    vA = lat.random_vector(rng)
    vf = lat.random_doublet(rng)
    hA, hf = geo.horizontal(vA, vf)
    assert hA.shape == vA.shape and hf.shape == vf.shape
    assert np.abs(geo.connection(hA, hf)).max() <= 1e-9
    # the projection removes exactly a gauge direction K(w)
    w = geo.connection(vA, vf)
    kA, kf = killing_vector(lat, FieldPair(np.zeros_like(vA), f, 0.8), w)
    assert_allclose(hA, vA - kA, rtol=0, atol=1e-13)
    assert_allclose(hf, vf - kf, rtol=0, atol=1e-13)


@pytest.mark.parametrize("s,n", [(1, 3), (2, 4), (3, 4)])
def test_N_f_matches_dense_frame(s, n):
    # apply_N_f is the dense N_f applied to v, for one state
    # and for a (3, 2, V) stack with one potential direction per state
    lat = Lattice(s, n)
    V, sV = lat.n_sites, lat.dim * lat.n_sites
    rng = np.random.default_rng(60 + s)
    fs = rng.standard_normal((3, 2, V))
    vs = rng.standard_normal((3, sV))
    dense = dense_N_f(lat, fs, 0.8)
    stacked = apply_N_f(lat, fs, 0.8, vs)
    assert stacked.shape == (3, 2, V)
    for k in range(3):
        want = dense[k] @ vs[k]
        one = apply_N_f(lat, fs[k], 0.8, vs[k].reshape(lat.dim, V))
        for got in (one, stacked[k]):
            assert np.abs(flat(got) - want).max() <= 1e-14 * np.abs(want).max()


# ----------------------------------------------------------------------
# horizontal metric blocks / pseudoinverse identity
# ----------------------------------------------------------------------

def test_horizontal_metric_zero_field():
    lat = Lattice(2, 3)
    f = np.zeros((2, lat.n_sites))
    hm = horizontal_metric(lat, adapted(lat, f), 0.8)
    N_f = dense_N_f(lat, f, 0.8)
    assert_allclose(transverse_projector(lat) @ N_f.T, 0.0, atol=0)
    assert_allclose(hm.h_ab, np.eye(2 * lat.n_sites), atol=0)


def _dense_pseudoinverse_residual(hm):
    """Oracle: assemble the full metric and pseudo-inverse (gauge sector in
    the reduced basis) as dense matrices and compare their product with
    blockdiag(h_AB, I, I)."""
    B = hm.basis
    sV, n2V, r = hm.g_AA.shape[0], hm.h_ab.shape[0], B.shape[1]
    n = sV + n2V + r
    iA, iF, iG = slice(0, sV), slice(sV, sV + n2V), slice(sV + n2V, n)
    Gt = np.zeros((n, n))
    Gt[iA, iA] = hm.g_AA
    Gt[iF, iF] = np.eye(n2V)
    Gt[iF, iG] = hm.g_fg @ B
    Gt[iG, iF] = Gt[iF, iG].T
    Gt[iG, iG] = B.T @ hm.g_gg @ B
    Gi = np.zeros((n, n))
    Gi[iA, iA] = hm.h_AB
    Gi[iF, iF] = hm.h_ab
    Gi[iA, iG] = hm.h_Ag @ B
    Gi[iG, iA] = Gi[iA, iG].T
    Gi[iF, iG] = hm.h_ag @ B
    Gi[iG, iF] = Gi[iF, iG].T
    Gi[iG, iG] = B.T @ hm.h_gg @ B
    target = np.zeros((n, n))
    target[iA, iA] = hm.h_AB
    target[iF, iF] = np.eye(n2V)
    target[iG, iG] = np.eye(r)
    return float(np.abs(Gi @ Gt - target).max())


@pytest.mark.parametrize("s,n", [(1, 2), (2, 2), (2, 3), (2, 4), (1, 5), (3, 4), (3, 5)])
def test_pseudoinverse_identity(s, n):
    lat = Lattice(s, n)
    rng = np.random.default_rng(8)
    for _ in range(3):
        p = FieldPair(lat.random_vector(rng), lat.random_doublet(rng), 0.8)
        c = to_adapted(lat, p)
        hm = horizontal_metric(lat, c, 0.8)
        residual = hm.pseudoinverse_residual()
        assert residual <= 1e-9
        assert abs(residual - _dense_pseudoinverse_residual(hm)) <= 1e-13


@pytest.mark.parametrize("block", ["g_AA", "h_AB", "g_fg", "g_gg", "h_ab",
                                   "h_Ag", "h_ag", "h_gg"])
def test_pseudoinverse_residual_sees_every_block(block):
    # a 1e-6 error in any one stored block shows, and the dense oracle agrees
    lat = Lattice(2, 3)
    rng = np.random.default_rng(8)
    p = FieldPair(lat.random_vector(rng), lat.random_doublet(rng), 0.8)
    hm = horizontal_metric(lat, to_adapted(lat, p), 0.8)
    assert hm.pseudoinverse_residual() <= 1e-9
    damaged = getattr(hm, block).copy()      # blocks may share cached operators
    damaged[0, 0] += 1e-6
    setattr(hm, block, damaged)
    residual = hm.pseudoinverse_residual()
    assert residual > 1e-7
    assert abs(residual - _dense_pseudoinverse_residual(hm)) <= 1e-13


def test_pseudoinverse_residual_propagates_nan():
    # a NaN in any stored block makes the residual NaN, so the check row fails
    lat = Lattice(2, 3)
    rng = np.random.default_rng(8)
    p = FieldPair(lat.random_vector(rng), lat.random_doublet(rng), 0.8)
    for block in ("g_AA", "h_AB", "g_fg", "g_gg", "h_ab", "h_Ag", "h_ag", "h_gg"):
        hm = horizontal_metric(lat, to_adapted(lat, p), 0.8)
        damaged = getattr(hm, block).copy()
        damaged[0, 0] = np.nan
        setattr(hm, block, damaged)
        assert np.isnan(hm.pseudoinverse_residual()), block


@pytest.mark.parametrize("large", [("h_AB", "g_AA"), ("h_Ag", "g_fg"), ("h_Ag", "g_gg"),
                                   ("h_ab",), ("h_ab", "g_fg"), ("h_Ag", "g_AA"),
                                   ("h_gg", "g_fg"), ("h_gg", "g_gg")],
                         ids=["AA", "AF", "AG", "FF", "FG", "GA", "GF", "GG"])
def test_pseudoinverse_residual_is_the_dense_product_for_any_blocks(large):
    # the skipped blocks are structurally zero, so the blockwise residual is
    # the dense one for arbitrary block values; scaling up the factors of
    # one product block makes that block carry the maximum
    rng = np.random.default_rng(12)
    sV, n2V, V, r = 4, 6, 3, 2
    shapes = dict(g_AA=(sV, sV), g_fg=(n2V, V), g_gg=(V, V), h_AB=(sV, sV),
                  h_ab=(n2V, n2V), h_Ag=(sV, V), h_ag=(n2V, V), h_gg=(V, V))
    hm = HorizontalMetric(basis=rng.standard_normal((V, r)), **{
        k: rng.standard_normal(shape) * (1e3 if k in large else 1e-3)
        for k, shape in shapes.items()})
    dense = _dense_pseudoinverse_residual(hm)
    assert hm.pseudoinverse_residual() == pytest.approx(dense, rel=1e-12)


def test_h_blocks_coulomb_simplifications():
    lat = Lattice(2, 4)
    rng = np.random.default_rng(9)
    c = adapted(lat, lat.random_doublet(rng))
    hm = horizontal_metric(lat, c, 0.8)
    P = transverse_projector(lat)
    assert np.abs(hm.h_AB - P).max() <= 1e-10
    # mixed potential-scalar block vanishes identically for this gauge
    N_f = dense_N_f(lat, c.f_tilde, 0.8)
    assert np.abs(P @ N_f.T).max() <= 1e-12
    assert_allclose(hm.h_ab, np.eye(2 * lat.n_sites) + N_f @ N_f.T, atol=1e-12)


# ----------------------------------------------------------------------
# christoffel drift
# ----------------------------------------------------------------------

def _fd_christoffel_contraction(lat, f, g0, d=1e-5):
    """Independent oracle: Christoffels of the degenerate horizontal metric
    from finite differences of its blocks, raised and contracted with the
    block pseudo-inverse."""
    sV = lat.dim * lat.n_sites
    n2V = 2 * lat.n_sites
    G = gradient_matrix(lat)
    Kf0 = killing_doublet_matrix(lat, f, g0)

    def blocks(ff):
        Dinv = OrbitGeometry(lat, ff, g0).Dinv
        Kf = killing_doublet_matrix(lat, ff, g0)
        g_AA = np.eye(sV) - G @ Dinv @ G.T
        g_Af = -G @ Dinv @ Kf.T
        g_ff = np.eye(n2V) - Kf @ Dinv @ Kf.T
        top = np.concatenate([g_AA, g_Af], axis=1)
        bot = np.concatenate([g_Af.T, g_ff], axis=1)
        return np.concatenate([top, bot], axis=0)

    ntot = sV + n2V
    dG = np.zeros((ntot, ntot, ntot))  # derivative index first; A-slots stay zero
    for a in range(2):
        for x in range(lat.n_sites):
            m = sV + a * lat.n_sites + x
            fp = f.copy(); fp[a, x] += d
            fm = f.copy(); fm[a, x] -= d
            dG[m] = (blocks(fp) - blocks(fm)) / (2 * d)
    # gam_low[p, q, d] = (d_p G_{qd} + d_q G_{pd} - d_d G_{pq}) / 2
    gam_low = 0.5 * (dG + dG.transpose(1, 0, 2) - dG.transpose(1, 2, 0))
    # raise with h = blockdiag(P, h_ff), contract with the same h
    P = transverse_projector(lat)
    N_f = dense_N_f(lat, f, g0)
    h = np.zeros((ntot, ntot))
    h[:sV, :sV] = P
    h[sV:, sV:] = np.eye(n2V) + N_f @ N_f.T
    gam_up = np.einsum("md,pqd->pqm", h, gam_low, optimize=True)
    contr = np.einsum("pq,pqm->m", h, gam_up, optimize=True)
    return contr[:sV], contr[sV:]


def _oracle_reference(lat, f, g0):
    """Reduced drift and Jacobian terms assembled densely from the oracle's
    Christoffel contraction (cA, cf), N_f and the horizontal metric block
    h_ab = I + N_f N_f^T:

        drift_A = -1/2 P cA + 1/4 P N_f^T sigma',
        drift_f = -1/2 cf - 1/2 N_f cA + 1/4 h_ab sigma',
        laplace_term = sum(h_ab o sigma'') - cf . sigma',
        grad_term = sigma' . h_ab sigma'.
    """
    cA, cf = _fd_christoffel_contraction(lat, f, g0)
    N_f = dense_N_f(lat, f, g0)
    P = transverse_projector(lat)
    geo = OrbitGeometry(lat, f, g0)
    h_ab = horizontal_metric(lat, adapted(lat, f), g0).h_ab
    sf = flat(geo.grad_f)
    drift_A = -0.5 * P @ cA + 0.25 * P @ N_f.T @ sf
    drift_f = -0.5 * cf - 0.5 * N_f @ cA + 0.25 * h_ab @ sf
    laplace = np.sum(h_ab * hess_ff(geo)) - cf @ sf
    return drift_A, drift_f, laplace, sf @ h_ab @ sf


ORACLE_LATTICES = [(1, 2), (1, 3), (1, 5), (2, 3)]


@pytest.mark.parametrize("s,n", ORACLE_LATTICES)
def test_drift_matches_christoffel_oracle(s, n):
    # the closed-form scalar drift is -1/2 h Gamma + j1 + j2 built from the
    # finite-difference Christoffel table, and the potential-sector drift
    # that the closed form drops is zero
    lat = Lattice(s, n)
    rng = np.random.default_rng(10 + 10 * s + n)
    for _ in range(3):
        f = lat.random_doublet(rng)
        g0 = 0.9
        ref_A, ref_f, _, _ = _oracle_reference(lat, f, g0)
        geo = OrbitGeometry(lat, f, g0)
        # the total drift vanishes on the two-site chain; sigma'/4 sets the scale
        scale = max(np.abs(ref_f).max(), np.abs(geo.grad_f / 4).max())
        assert np.abs(flat(scalar_drift(lat, f, g0)) - ref_f).max() <= 1e-8 * scale
        assert np.abs(ref_A).max() <= 1e-10


@pytest.mark.parametrize("s,n", ORACLE_LATTICES)
def test_jacobian_matches_christoffel_oracle(s, n):
    # laplace_term and grad_term of one state and of each row of a stack
    # equal the dense contractions with h_ab and the oracle's Christoffels
    lat = Lattice(s, n)
    rng = np.random.default_rng(30 + 10 * s + n)
    g0 = 0.9
    fs = rng.standard_normal((3, 2, lat.n_sites))
    stack = OrbitGeometry(lat, fs, g0).jacobian(1.0, 1.0)
    for k in range(3):
        _, _, laplace, grad = _oracle_reference(lat, fs[k], g0)
        one = OrbitGeometry(lat, fs[k], g0).jacobian(1.0, 1.0)
        for rep_laplace, rep_grad in ((one.laplace_term, one.grad_term),
                                      (stack.laplace_term[k], stack.grad_term[k])):
            assert abs(rep_laplace - laplace) <= 1e-8 * abs(laplace)
            assert abs(rep_grad - grad) <= 1e-12 * abs(grad)


def _dinv_forms(lat, f, g0, mu, kappa):
    """Reference drift_f, laplace_term and J in the orbit-metric inverse, for
    one state or a stack: with d = diag Dinv, G = -green, |u|^2 = g0^2 |f~|^2,
    W = Dinv + Dinv diag(|u|^2) G and w(x) = sum_z W(x, z) Dinv(x, z) |u(z)|^2,

        drift_f      = g0^2 f~ (d/2 - diag W + w/2),
        laplace_term = g0^2 sum_x [2 d (2 - 2 |u|^2 d + |u|^2 G(x,x))
                                   - 2 |u|^2 d (2 diag W - w)],
        J            = -(1/8) mu^2 kappa (laplace_term + |sigma'|^2 / 4),

    sigma' = 2 g0^2 f~ d: the contractions as they read before their Dinv
    products cancel."""
    Dinv = np.linalg.inv(orbit_metric(lat, f, g0).D)
    G = -faddeev_popov(lat).green
    u2 = g0 ** 2 * (f[..., 0, :] ** 2 + f[..., 1, :] ** 2)
    d = np.diagonal(Dinv, axis1=-2, axis2=-1)
    W = Dinv + (Dinv * u2[..., None, :]) @ G
    diag_W = np.diagonal(W, axis1=-2, axis2=-1)
    w = np.sum(W * Dinv * u2[..., None, :], axis=-1)
    drift = g0 ** 2 * f * (0.5 * d - diag_W + 0.5 * w)[..., None, :]
    laplace = g0 ** 2 * np.sum(2 * d * (2 - 2 * u2 * d + u2 * np.diag(G))
                               - 2 * u2 * d * (2 * diag_W - w), axis=-1)
    grad = np.sum((2 * g0 ** 2 * f * d[..., None, :]) ** 2, axis=(-2, -1))
    return drift, laplace, -0.125 * mu ** 2 * kappa * (laplace + 0.25 * grad)


@pytest.mark.parametrize("s,n,h", [(1, 3, 1.0), (1, 5, 0.7), (2, 3, 1.0), (2, 4, 1.3),
                                   (3, 4, 1.0), (3, 6, 1.0), (2, 16, 1.0)])
def test_closed_forms_match_dinv_forms(s, n, h):
    # drift_f = 1/2 g0^2 green(x, x) f~, laplace_term = g0^2 sum(4d - 6|u|^2 d^2)
    # and J = -(mu^2 kappa g0^2 / 8 h^s) sum d (4 - 5 |u|^2 d) equal the Dinv
    # forms within 1e-12 relative, for one state and for a (3, 2, V) stack
    # (J carries the generator's 1/h^s, pinned by the h-transform identity)
    lat = Lattice(s, n, h)
    hs = h ** s
    rng = np.random.default_rng(70 + 10 * s + n)
    g0, mu, kappa = 0.9, 1.1, 0.8
    fs = rng.standard_normal((3, 2, lat.n_sites))
    for f in (fs[0], fs):
        drift, laplace, J = _dinv_forms(lat, f, g0, mu, kappa)
        got = scalar_drift(lat, f, g0)
        assert got.shape == f.shape
        assert np.abs(got - drift).max() <= 1e-12 * np.abs(drift).max()
        geo = OrbitGeometry(lat, f, g0)
        rep = geo.jacobian(mu, kappa)
        d = np.diagonal(geo.Dinv, axis1=-2, axis2=-1)
        J_d = -0.125 * mu ** 2 * kappa * g0 ** 2 * np.sum(d * (4 - 5 * geo.u2 * d), axis=-1)
        assert np.all(np.abs(rep.laplace_term - laplace) <= 1e-12 * np.abs(laplace))
        for want in (J / hs, J_d / hs):
            assert np.all(np.abs(rep.J - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("s,n", [(1, 3), (2, 3)])
@pytest.mark.parametrize("h", [1.0, 0.5])
def test_jacobian_is_the_h_transform_of_the_christoffel_generator(s, n, h):
    # with psi = exp(sigma / 4), sigma = log det D, and L0 the generator of
    # the reduced scalar sector with the Christoffel drift alone,
    # L0 = (mu^2 kappa / h^s) [(drift_f - sigma'/4) . grad
    #                          + 1/2 tr((I + N_f N_f^T) hess)],
    # the drift form is psi^-1 L0 psi - (L0 psi) / psi and (L0 psi) / psi = -J;
    # grad and hess of psi by central differences (step 1e-4) of log det D,
    # which agree within 5.5e-6 relative here; without the 1/h^s in J the
    # ratio reads 2 on (1, 3) and 4 on (2, 3) at h = 0.5
    lat = Lattice(s, n, h)
    V, nA = lat.n_sites, s * lat.n_sites
    rng = np.random.default_rng(90 + 10 * s + n)
    g0, mu, kappa, eps = 0.7, 1.1, 0.8, 1e-4
    for _ in range(2):
        f = rng.standard_normal((2, V)) + [[1.0], [0.0]]
        N_f = apply_N_f(lat, np.broadcast_to(f, (nA, 2, V)), g0, np.eye(nA)).reshape(nA, -1).T
        geo = OrbitGeometry(lat, f, g0)
        b0 = flat(scalar_drift(lat, f, g0) - geo.grad_f / 4)
        # stencil points: f, f +- eps e_i, and f +- eps e_i +- eps e_j (i < j)
        E = eps * np.eye(2 * V)
        i, j = np.triu_indices(2 * V, 1)
        points = [np.zeros((1, 2 * V)), E, -E]
        points += [E[i] + sj * E[j] for sj in (1, -1)] + [-E[i] + sj * E[j] for sj in (1, -1)]
        stack = flat(f) + np.concatenate(points)
        psi = np.exp(orbit_metric(lat, stack.reshape(-1, 2, V), g0).logdet / 4)
        p0, pp, pm = psi[0], psi[1:2 * V + 1], psi[2 * V + 1:4 * V + 1]
        ppp, ppm, pmp, pmm = np.split(psi[4 * V + 1:], 4)
        grad = (pp - pm) / (2 * eps)
        hess = np.diag((pp - 2 * p0 + pm) / eps ** 2)
        hess[i, j] = hess[j, i] = (ppp - ppm - pmp + pmm) / (4 * eps ** 2)
        L0_psi = mu ** 2 * kappa / h ** s * (
            b0 @ grad + 0.5 * np.sum((np.eye(2 * V) + N_f @ N_f.T) * hess))
        J = geo.jacobian(mu, kappa).J
        assert abs(-L0_psi / p0 - J) <= 1e-4 * abs(J)


def test_christoffel_drift_two_site_closed_form():
    # on the trivial-gauge two-site chain the Christoffel part of the drift,
    # drift - sigma'/4, is -f/(2|f|^2) per site, and sigma'/4 cancels it
    lat = Lattice(1, 2)
    rng = np.random.default_rng(11)
    f = lat.random_doublet(rng)
    geo = OrbitGeometry(lat, f, 0.63)
    assert_allclose(scalar_drift(lat, f, 0.63) - geo.grad_f / 4, -0.5 * f / (f[0] ** 2 + f[1] ** 2),
                    atol=1e-13)
    assert_allclose(geo.grad_f / 4, 0.5 * f / (f[0] ** 2 + f[1] ** 2), atol=1e-13)


def test_scaling_covariance():
    # f -> lam f, g0 -> g0/lam: D and all derivative-free objects invariant;
    # each scalar derivative contributes one power of 1/lam
    lat = Lattice(2, 3)
    rng = np.random.default_rng(12)
    f = lat.random_doublet(rng)
    g0, lam = 0.8, 1.7
    geo1 = OrbitGeometry(lat, f, g0)
    geo2 = OrbitGeometry(lat, lam * f, g0 / lam)
    assert np.abs(geo1.metric.D - geo2.metric.D).max() <= 1e-10
    assert abs(geo1.metric.logdet - geo2.metric.logdet) <= 1e-10
    assert np.abs(geo2.grad_f - geo1.grad_f / lam).max() <= 1e-10
    assert np.abs(hess_ff(geo2) - hess_ff(geo1) / lam ** 2).max() <= 1e-10
    assert np.abs(scalar_drift(lat, lam * f, g0 / lam)
                  - scalar_drift(lat, f, g0) / lam).max() <= 1e-10
    r1 = geo1.jacobian(1.0, 1.0)
    r2 = geo2.jacobian(1.0, 1.0)
    assert abs(r2.J - r1.J / lam ** 2) <= 1e-10


def test_christoffel_drift_zero_field_raises():
    # the drift, Christoffel and mean-curvature parts alike, needs the orbit
    # metric, which is singular at f~ = 0
    lat = Lattice(1, 4)
    with pytest.raises(SingularOrbitMetric):
        reduced_drift(lat, adapted(lat, np.zeros((2, 4))), 0.8)


# ----------------------------------------------------------------------
# mean curvature terms
# ----------------------------------------------------------------------

def test_j2_scalar_against_explicit_loop():
    # the orbit mean curvature j2_f = 1/4 h_ab sigma' is sigma'/4, because
    # h_ab = I + u u^T o G and u . sigma' = 0 at every site (u = g0 Jbar f~)
    lat = Lattice(1, 4)
    rng = np.random.default_rng(13)
    f = lat.random_doublet(rng)
    g0 = 0.8
    geo = OrbitGeometry(lat, f, g0)
    N_f = dense_N_f(lat, f, g0)
    h = np.eye(2 * lat.n_sites) + N_f @ N_f.T
    n2V = 2 * lat.n_sites
    ref = np.zeros(n2V)
    sf = flat(geo.grad_f)
    for p in range(n2V):
        acc = 0.0
        for q in range(n2V):
            acc += h[p, q] * sf[q]
        ref[p] = 0.25 * acc
    assert np.abs(flat(geo.grad_f / 4) - ref).max() <= 1e-12


def test_j2_potential_sector_blockwise_zero():
    # sigma has no potential-sector slope and the mixed h block vanishes,
    # so the potential sector receives no orbit-curvature drift
    lat = Lattice(2, 3)
    rng = np.random.default_rng(14)
    f = lat.random_doublet(rng)
    geo = OrbitGeometry(lat, f, 0.8)
    N_f = dense_N_f(lat, f, 0.8)
    blockwise = 0.25 * (transverse_projector(lat) @ N_f.T) @ flat(geo.grad_f)
    assert np.abs(blockwise).max() <= 1e-12


def test_total_potential_drift_vanishes():
    # orbit-space curvature cancels the vertical Christoffel contraction
    # (pinned against the oracle by test_drift_matches_christoffel_oracle),
    # so reduced_drift returns an exact zero potential-sector part
    lat = Lattice(2, 4)
    rng = np.random.default_rng(15)
    f = lat.random_doublet(rng)
    dA, _ = reduced_drift(lat, adapted(lat, f), 0.8)
    assert dA.shape == (2, lat.n_sites) and not np.any(dA)


# ----------------------------------------------------------------------
# reduction Jacobian
# ----------------------------------------------------------------------

def test_jacobian_two_site_uniform_oracle():
    # frozen closed form J = mu^2 kappa / (4 c), derived by hand pre-build
    lat = Lattice(1, 2)
    mu, kappa, g0 = 1.1, 0.8, 0.63
    F1, F2 = 0.6, -0.9
    c = F1 ** 2 + F2 ** 2
    f = np.stack([np.full(2, F1), np.full(2, F2)])
    rep = OrbitGeometry(lat, f, g0).jacobian(mu, kappa)
    assert rep.J == pytest.approx(mu ** 2 * kappa / (4 * c), rel=1e-10)


def test_jacobian_two_site_general_oracle():
    # frozen closed form J = (mu^2 kappa / 8) sum_x 1/|f(x)|^2
    lat = Lattice(1, 2)
    rng = np.random.default_rng(16)
    mu, kappa, g0 = 0.9, 1.3, 0.5
    f = rng.standard_normal((2, 2))
    rep = OrbitGeometry(lat, f, g0).jacobian(mu, kappa)
    expected = mu ** 2 * kappa / 8 * np.sum(1.0 / (f[0] ** 2 + f[1] ** 2))
    assert rep.J == pytest.approx(expected, rel=1e-10)


def test_jacobian_zero_field_raises():
    lat = Lattice(1, 2)
    with pytest.raises(SingularOrbitMetric):
        OrbitGeometry(lat, np.zeros((2, 2)), 0.8).jacobian(1.0, 1.0)


def test_jacobian_quadratic_in_mu():
    lat = Lattice(2, 3)
    rng = np.random.default_rng(17)
    geo = OrbitGeometry(lat, lat.random_doublet(rng), 0.8)
    r1 = geo.jacobian(1.0, 0.7)
    r2 = geo.jacobian(2.0, 0.7)
    assert r2.J == pytest.approx(4.0 * r1.J, rel=1e-14)
    assert r1.J == pytest.approx(-0.125 * 1.0 * 0.7 * (r1.laplace_term + 0.25 * r1.grad_term))


def test_jacobian_translation_invariance():
    lat = Lattice(2, 4)
    rng = np.random.default_rng(19)
    f = lat.random_doublet(rng)
    shifted = np.stack([np.roll(f[a].reshape(lat.shape), 1, axis=0).ravel()
                        for a in range(2)])
    r1 = OrbitGeometry(lat, f, 0.8).jacobian(1.0, 1.0)
    r2 = OrbitGeometry(lat, shifted, 0.8).jacobian(1.0, 1.0)
    assert abs(r1.J - r2.J) <= 1e-10
    assert abs(r1.logdet - r2.logdet) <= 1e-10


def test_jacobian_global_rotation_invariance():
    lat = Lattice(2, 3)
    rng = np.random.default_rng(20)
    f = lat.random_doublet(rng)
    th = 1.1
    fr = np.stack([np.cos(th) * f[0] + np.sin(th) * f[1],
                   -np.sin(th) * f[0] + np.cos(th) * f[1]])
    r1 = OrbitGeometry(lat, f, 0.8).jacobian(1.0, 1.0)
    r2 = OrbitGeometry(lat, fr, 0.8).jacobian(1.0, 1.0)
    assert abs(r1.J - r2.J) <= 1e-10
    assert abs(r1.laplace_term - r2.laplace_term) <= 1e-10
    assert abs(r1.grad_term - r2.grad_term) <= 1e-10


def test_effective_potential_composition():
    # V_eff = V + J / m: the report's correction is J / m, and the composed
    # potential is the same for gauge-equivalent states (odd N, mean-zero
    # gauge motion)
    lat = Lattice(2, 3)
    rng = np.random.default_rng(21)
    p = FieldPair(lat.random_vector(rng), lat.random_doublet(rng), 0.8)
    eps = lat.random_scalar(rng)
    eps -= eps.mean()
    q = gauge_transform(lat, p, eps)
    mu, kappa, m = 1.1, 0.9, 2.0
    rp = OrbitGeometry(lat, to_adapted(lat, p).f_tilde, 0.8).jacobian(mu, kappa, m)
    rq = OrbitGeometry(lat, to_adapted(lat, q).f_tilde, 0.8).jacobian(mu, kappa, m)
    assert rp.V_correction == pytest.approx(rp.J / m, abs=1e-15)
    v_p = potential(lat, p) + rp.V_correction
    v_q = potential(lat, q) + rq.V_correction
    assert abs(v_p - v_q) / (1.0 + abs(v_p)) <= 1e-9


def test_jacobian_orbit_independence():
    # any representative of the same orbit gives the same J: gauge-equivalent
    # p and q have the same f~ up to roundoff (odd N, mean-zero gauge motion)
    lat = Lattice(2, 3)
    rng = np.random.default_rng(22)
    p = FieldPair(lat.random_vector(rng), lat.random_doublet(rng), 0.8)
    eps = lat.random_scalar(rng)
    eps -= eps.mean()
    q = gauge_transform(lat, p, eps)
    r1 = OrbitGeometry(lat, to_adapted(lat, p).f_tilde, 0.8).jacobian(1.0, 1.0)
    r2 = OrbitGeometry(lat, to_adapted(lat, q).f_tilde, 0.8).jacobian(1.0, 1.0)
    assert abs(r1.J - r2.J) / (1.0 + abs(r1.J)) <= 1e-9
    assert abs(r1.logdet - r2.logdet) <= 1e-9
