"""Adaptive Gauss-Kronrod quadrature and the endpoint-weighted integrals.

Proves:
  1.  Smooth integrands agree with scipy.integrate.quad to 1e-12
  2.  Integrable endpoint singularity (1/sqrt) handled to 1e-10
  3.  A genuinely divergent integrand exhausts the panel budget
      (QuadratureError), and non-finite values are rejected
  4.  beta_weighted_integral reproduces the two-parameter beta function
      for power-law g across the whole exponent range, including the
      near-degenerate end beta = 1.9999
  5.  The divergence probe raises DivergentIntegralError exactly when
      the endpoint exponent makes the integral diverge, and stays quiet
      for integrable singular g
  6.  A mesh frozen at one exponent re-evaluates nearby exponents to
      1e-9 relative accuracy
  7.  beta_weighted_on_mesh, which reads g from the mesh's node cache,
      equals an uncached _eval_panels sweep of the mesh's breakpoints bit
      for bit at a scalar beta, and an array of betas equals the scalar
      calls bit for bit (the derivative polish of sup_F relies on it); a
      g that is not finite on the mesh raises QuadratureError, and so
      does a beta outside [0, 2) in the array
  8.  quad refuses an empty, reversed or NaN range with QuadratureError
  9.  frozen_beta_meshes, which adapts many partitions in lockstep, gives
      the meshes that the one-partition adaptive loop (kept here as the
      reference) and a one-at-a-time node cache give, bit for bit:
      breakpoints, half-widths, log s, g and 1 - u, on every _MESH_CASES
      group plus beta = 1.999 (q = 2001), and _adapt_one, its
      one-partition case, gives that loop's mesh; a g that is not finite
      inside a lockstep round raises QuadratureError naming the abscissa
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import beta as beta_fn

from wavebound._quad import (
    _adapt_one,
    _eval_panels,
    _nodes,
    _probe_divergence,
    _q_for,
    _seed_breakpoints,
    _substituted,
    beta_weighted_integral,
    beta_weighted_on_mesh,
    frozen_beta_mesh,
    frozen_beta_meshes,
    quad,
)
from wavebound.errors import DivergentIntegralError, QuadratureError


def test_smooth_vs_scipy():
    cases = [
        (lambda x: np.sin(3.0 * x) * np.exp(-x), 0.0, 5.0),
        (lambda x: x**7 - 4.0 * x**3 + 1.0, -2.0, 3.0),
        (lambda x: 1.0 / (1.0 + x * x), -10.0, 10.0),
    ]
    for f, a, b in cases:
        want, _ = scipy_quad(f, a, b, epsabs=1e-13, epsrel=1e-13)
        got, err = quad(f, a, b, eps=1e-13)
        assert got == pytest.approx(want, abs=1e-12, rel=1e-12)
        assert err < 1e-10


def test_inverse_sqrt_endpoint():
    got, _ = quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, eps=1e-12)
    assert got == pytest.approx(2.0, rel=1e-10)


def test_divergent_exhausts_budget():
    def inv(x):
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / np.asarray(x, dtype=float)

    with pytest.raises(QuadratureError):
        quad(inv, 0.0, 1.0, eps=1e-12)


def test_non_finite_rejected():
    def bad(x):
        out = np.ones_like(x)
        out[np.asarray(x) > 0.5] = np.nan
        return out

    with pytest.raises(QuadratureError):
        quad(bad, 0.0, 1.0)


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, 0.0), (0.0, math.nan)])
def test_adaptive_mesh_rejects_empty_range(a, b):
    with pytest.raises(QuadratureError, match="empty integration range"):
        quad(np.cos, a, b)


def test_beta_weighted_matches_beta_function():
    # integral_0^1 u^(s+1-b) (1-u)^b du = B(2-b+s, 1+b) for g = u^s
    for s in (0.0, 0.5, 1.0, 2.0):
        g = (lambda s: lambda u: np.asarray(u, dtype=float) ** s)(s)
        for b in (0.1, 0.5, 1.0, 1.5, 1.9, 1.99, 1.9999):
            want = beta_fn(2.0 - b + s, 1.0 + b)
            got = beta_weighted_integral(g, b)
            assert got == pytest.approx(want, rel=5e-10), (s, b)


def test_beta_weighted_logistic_factor():
    # g = 1 - u gives exactly B(2-b, 2+b), the bound's denominator
    g = lambda u: 1.0 - np.asarray(u, dtype=float)
    for b in np.linspace(0.05, 1.95, 20):
        want = beta_fn(2.0 - b, 2.0 + b)
        got = beta_weighted_integral(g, float(b))
        assert got == pytest.approx(want, rel=5e-10)


def test_divergence_probe_raises_only_when_divergent():
    inv = lambda u: 1.0 / np.maximum(np.asarray(u, dtype=float), 1e-320)
    # u^-1 weight: total endpoint exponent 1 - b - 1 <= -1 iff b >= 1
    with pytest.raises(DivergentIntegralError):
        _probe_divergence(inv, 1.2)
    # u^-1/2 at the same exponent stays integrable (exponent -0.7); the
    # clamp only matters below the double-precision underflow floor
    inv_sqrt = lambda u: np.maximum(np.asarray(u, dtype=float), 1e-320) ** -0.5
    _probe_divergence(inv_sqrt, 1.2)
    want = beta_fn(1.5 - 1.2, 1.0 + 1.2)
    got = beta_weighted_integral(inv_sqrt, 1.2)
    assert got == pytest.approx(want, rel=1e-9)


def test_frozen_mesh_tracks_nearby_exponents():
    g = lambda u: (1.0 - np.asarray(u, dtype=float)) * (
        1.0 + 0.3 * np.asarray(u, dtype=float)
    )
    center = 1.4
    mesh = frozen_beta_mesh(g, center, eps=1e-13)
    for b in (1.32, 1.38, 1.4, 1.43, 1.48):
        fresh = beta_weighted_integral(g, b)
        onmesh = beta_weighted_on_mesh(b, mesh)
        assert onmesh == pytest.approx(fresh, rel=1e-9), b


_MESH_CASES = [
    (lambda u: (1.0 - u) * (1.0 + 0.3 * u), (0.4, 1.0, 1.4, 1.9, 1.995)),
    (lambda u: np.sqrt(u) + 0.2 * np.cos(5.0 * u), (0.1, 1.3, 1.7, 1.99)),
]


def test_cached_mesh_equals_uncached_sweep_bitwise():
    for g, centers in _MESH_CASES:
        for center in centers:
            mesh = frozen_beta_mesh(g, center)
            brk = mesh.breakpoints
            for b in (center - 0.02, center - 1e-7, center):
                vals, _ = _eval_panels(_substituted(g, b, mesh.q), brk[:-1], brk[1:])
                assert beta_weighted_on_mesh(b, mesh) == float(vals.sum()), (center, b)


def test_array_beta_matches_scalar_calls():
    for g, centers in _MESH_CASES:
        for center in centers:
            mesh = frozen_beta_mesh(g, center)
            betas = np.linspace(max(center - 0.3, 0.0), center, 9)
            got = beta_weighted_on_mesh(betas, mesh)
            assert got.shape == betas.shape
            want = [beta_weighted_on_mesh(float(b), mesh) for b in betas]
            np.testing.assert_array_equal(got, want)


def test_non_finite_g_on_mesh_raises():
    def g(u):
        u = np.asarray(u, dtype=float)
        return np.where((u > 0.2) & (u < 0.3), np.nan, 1.0 - u)

    with pytest.raises(QuadratureError, match="not finite"):
        frozen_beta_mesh(g, 1.2)


def test_array_beta_outside_range_raises():
    g = lambda u: 1.0 - np.asarray(u, dtype=float)
    mesh = frozen_beta_mesh(g, 1.0)
    for bad in ([0.5, 2.0], [-0.1, 0.5], [0.5, np.nan]):
        with pytest.raises(QuadratureError, match="beta"):
            beta_weighted_on_mesh(np.array(bad), mesh)


def _loop_adapt(f, a, b, epsabs=1e-10, epsrel=1e-10, limit=4096):
    """The adaptive loop for one partition, as it was written before the
    partitions adapted in lockstep; returns the sorted breakpoints."""
    vals, errs = _eval_panels(f, a, b)
    while float(errs.sum()) > max(epsabs, epsrel * abs(float(vals.sum()))):
        assert len(a) < limit
        order = np.argsort(errs)[::-1]
        cum = np.cumsum(errs[order])
        k = min(int(np.searchsorted(cum, 0.5 * float(errs.sum()))) + 1, limit - len(a))
        idx = order[:k]
        keep = np.ones(len(a), dtype=bool)
        keep[idx] = False
        lo, hi = a[idx], b[idx]
        mid = 0.5 * (lo + hi)
        new_a, new_b = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        new_vals, new_errs = _eval_panels(f, new_a, new_b)
        a, b = np.concatenate((a[keep], new_a)), np.concatenate((b[keep], new_b))
        vals = np.concatenate((vals[keep], new_vals))
        errs = np.concatenate((errs[keep], new_errs))
    return np.concatenate((a[np.argsort(a)], [b.max()]))


def _one_at_a_time(g, beta):
    """A frozen mesh adapted alone, with its node cache computed alone."""
    q = _q_for(beta)
    brk = _seed_breakpoints(q)
    mesh = _loop_adapt(_substituted(g, beta, q), brk[:-1], brk[1:])
    x, half = _nodes(mesh[:-1], mesh[1:])
    log_u = q * np.log(x)
    g_u = np.broadcast_to(np.asarray(g(np.exp(log_u)), dtype=float), x.shape)
    return q, mesh, half, np.log(x), g_u, -np.expm1(log_u)


def test_lockstep_meshes_equal_one_at_a_time_meshes():
    for g, centers in _MESH_CASES:
        betas = centers + (1.999,)
        meshes = frozen_beta_meshes(g, betas)
        assert len(meshes) == len(betas)
        for beta, mesh in zip(betas, meshes):
            q, brk, half, log_s, g_u, one_minus_u = _one_at_a_time(g, beta)
            assert mesh.q == q
            np.testing.assert_array_equal(mesh.breakpoints, brk)
            np.testing.assert_array_equal(mesh.half, half)
            np.testing.assert_array_equal(mesh.log_s, log_s)
            np.testing.assert_array_equal(mesh.g, g_u)
            np.testing.assert_array_equal(mesh.one_minus_u, one_minus_u)
    assert _q_for(1.999) == 2001


def test_one_partition_mesh_equals_reference_loop():
    f = lambda x: np.exp(-x) * np.cos(4.0 * x)
    brk = np.array([0.0, 3.0])
    want = _loop_adapt(f, brk[:-1], brk[1:], epsabs=1e-13, epsrel=1e-13)
    _, _, starts = _adapt_one(f, brk, 1e-13)
    got = np.concatenate((np.sort(starts), [3.0]))
    assert len(got) > 3
    np.testing.assert_array_equal(got, want)


def test_non_finite_g_in_lockstep_round_raises():
    def g(u):
        u = np.asarray(u, dtype=float)
        return np.where((u > 0.2) & (u < 0.3), np.nan, 1.0 - u)

    # x prints as a plain float, not as np.float64(...)
    with pytest.raises(
        QuadratureError, match=r"^integrand is not finite at x = \d\.\d+(e-\d+)?$"
    ):
        frozen_beta_meshes(g, (0.4, 1.2, 1.9))
