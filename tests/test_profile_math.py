"""Closed-form layer: constants, steady states, barrier, manufactured
solutions and the J-function, checked against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbulab.errors import DomainError, SingularityError
from gbulab.profile_math import (BoundManufactured, barrier_eval,
                                 barrier_params, calibrate_barrier_c0,
                                 final_profile_model, j_model, j_params,
                                 manufactured_callbacks, manufactured_params,
                                 manufactured_solution, profile_constants,
                                 steady_state)


# --------------------------------------------------------------------------
# constants
# --------------------------------------------------------------------------


def test_constants_p3():
    pc = profile_constants(3.0)
    assert pc.beta == pytest.approx(0.5)
    assert pc.d_p == pytest.approx(0.5**0.5)
    assert pc.c_p == pytest.approx(2.0 * 0.5**0.5)
    assert pc.tangential_exp == pytest.approx(2.0)
    assert pc.anisotropy_exp == pytest.approx(4.0)
    assert pc.time_rate_exp == pytest.approx(1.0)


def test_constants_p25():
    pc = profile_constants(2.5)
    assert pc.beta == pytest.approx(2.0 / 3.0)
    assert pc.d_p == pytest.approx((2.0 / 3.0) ** (2.0 / 3.0))
    assert pc.c_p == pytest.approx(3.0 * (2.0 / 3.0) ** (2.0 / 3.0))
    assert pc.tangential_exp == pytest.approx(4.0)
    assert pc.anisotropy_exp == pytest.approx(6.0)
    assert pc.time_rate_exp == pytest.approx(2.0)


@pytest.mark.parametrize("p", [2.0, 1.5, -1.0])
def test_constants_reject_subcritical(p):
    with pytest.raises(DomainError, match="p > 2"):
        profile_constants(p)


@given(p=st.floats(2.01, 10.0))
def test_constants_identities(p):
    pc = profile_constants(p)
    # d_p^p = beta * d_p is the algebraic core of the steady-state identity
    assert pc.d_p**p == pytest.approx(pc.beta * pc.d_p, rel=1e-12)
    assert pc.c_p * (1.0 - pc.beta) == pytest.approx(pc.d_p, rel=1e-12)


# --------------------------------------------------------------------------
# steady states
# --------------------------------------------------------------------------


def test_steady_state_identity_random():
    # -V_a'' = (V_a')^p to 1e-12 relative on 1000 random (a, y)
    rng = np.random.default_rng(20260823)
    for p in (2.5, 3.0):
        pc = profile_constants(p)
        a = rng.uniform(0.01, 2.0, size=500)
        y = rng.uniform(0.0, 3.0, size=500)
        _, d1, d2 = steady_state(a, y, pc)
        assert np.max(np.abs((-d2 - d1**p) / d1**p)) < 1e-12


def test_steady_state_values_p3():
    pc = profile_constants(3.0)
    v, d1, d2 = steady_state(0.0, 1.0, pc)
    assert v == pytest.approx(pc.c_p)
    assert d1 == pytest.approx(pc.d_p)
    v, d1, _ = steady_state(0.3, 0.0, pc)
    assert v == pytest.approx(0.0)
    assert d1 == pytest.approx(pc.d_p * 0.3 ** -0.5)


def test_steady_state_domain_errors():
    pc = profile_constants(3.0)
    with pytest.raises(DomainError):
        steady_state(-0.1, 1.0, pc)
    with pytest.raises(SingularityError):
        steady_state(0.0, 0.0, pc)


# --------------------------------------------------------------------------
# final profile model
# --------------------------------------------------------------------------


def test_final_profile_model_restrictions():
    pc = profile_constants(3.0)
    # x = 0 reduces to the 1D steady slope d_p y^(-beta)
    assert final_profile_model(pc, 0.7, 0.0, 0.04) == pytest.approx(
        pc.d_p * 0.04**-0.5)
    # y = 0 decays like |x|^(-2/(p-2))
    v1 = final_profile_model(pc, 0.7, 0.02, 0.0)
    v2 = final_profile_model(pc, 0.7, 0.04, 0.0)
    assert v1 / v2 == pytest.approx(2.0**pc.tangential_exp)


def test_final_profile_model_errors():
    pc = profile_constants(3.0)
    with pytest.raises(DomainError):
        final_profile_model(pc, -1.0, 0.1, 0.1)
    with pytest.raises(SingularityError):
        final_profile_model(pc, 1.0, 0.0, 0.0)


# --------------------------------------------------------------------------
# barrier
# --------------------------------------------------------------------------


def test_barrier_zero_on_bottom():
    pc = profile_constants(3.0)
    bp = barrier_params(pc, 0.1, 0.05, 0.02, 0.0, 0.5, 0.01, 1.0)
    z, _, _ = barrier_eval(bp, pc, 0.1, 0.0, 0.25)
    assert z == pytest.approx(0.0, abs=1e-15)


def test_barrier_finite_on_phi_zero_faces():
    pc = profile_constants(3.0)
    bp = barrier_params(pc, 0.1, 0.05, 0.02, 0.0, 0.5, 0.01, 1.0)
    # t = t0 and lateral edges make phi vanish; products stay finite
    for (x, y, t) in [(0.1, 0.01, 0.0), (0.05, 0.01, 0.2), (0.15, 0.01, 0.2)]:
        z, (zx, zy), res = barrier_eval(bp, pc, x, y, t)
        assert np.isfinite([z, zx, zy, res]).all()
        assert zy == pytest.approx(pc.d_p * y**-0.5 - bp.kappa * y)


@pytest.mark.parametrize("p", [2.5, 3.0])
def test_barrier_calibrated_residual_nonnegative(p):
    pc = profile_constants(p)
    C0, bp, rmin = calibrate_barrier_c0(pc, 0.1, 0.05, 0.02, 0.0, 0.5, 0.01)
    assert rmin >= 0.0
    assert bp.kappa == pytest.approx(
        C0 * 0.01 ** (1.0 - pc.beta) * (0.05**2 + 0.5))


def test_barrier_eval_rejects_outside_box():
    pc = profile_constants(3.0)
    bp = barrier_params(pc, 0.1, 0.05, 0.02, 0.0, 0.5, 0.01, 1.0)
    with pytest.raises(DomainError):
        barrier_eval(bp, pc, 0.3, 0.01, 0.2)
    with pytest.raises(DomainError):
        barrier_eval(bp, pc, 0.1, 0.01, 0.6)


def test_barrier_residual_matches_finite_differences():
    """Closed-form derivatives agree with central differences of z."""
    pc = profile_constants(3.0)
    bp = barrier_params(pc, 0.1, 0.05, 0.02, 0.0, 0.5, 0.01, 4.0)
    x0, y0, t0 = 0.11, 0.008, 0.21
    h = 1e-5

    def z(x, y, t):
        return barrier_eval(bp, pc, x, y, t)[0]

    zt = (z(x0, y0, t0 + h) - z(x0, y0, t0 - h)) / (2 * h)
    zxx = (z(x0 + h, y0, t0) - 2 * z(x0, y0, t0) + z(x0 - h, y0, t0)) / h**2
    zyy = (z(x0, y0 + h, t0) - 2 * z(x0, y0, t0) + z(x0, y0 - h, t0)) / h**2
    zx = (z(x0 + h, y0, t0) - z(x0 - h, y0, t0)) / (2 * h)
    zy = (z(x0, y0 + h, t0) - z(x0, y0 - h, t0)) / (2 * h)
    _, (zx_c, zy_c), res = barrier_eval(bp, pc, x0, y0, t0)
    assert zx_c == pytest.approx(zx, rel=1e-5)
    assert zy_c == pytest.approx(zy, rel=1e-5)
    num = zt - zxx - zyy - (zx**2 + zy**2) ** 1.5
    assert res == pytest.approx(num, rel=1e-3, abs=1e-4)


# --------------------------------------------------------------------------
# manufactured solutions
# --------------------------------------------------------------------------


def test_manufactured_params_validates_alpha():
    pc = profile_constants(3.0)
    with pytest.raises(DomainError):
        manufactured_params(pc, 1.5, 1.0)
    mp = manufactured_params(pc, 2.0, 1.0)
    assert mp.alpha == 2.0


def test_manufactured_forcing_matches_finite_differences():
    pc = profile_constants(3.0)
    mp = manufactured_params(pc, 3.0, 1.0)
    x0, y0, t0 = 0.07, 0.05, 0.4
    h = 1e-6

    def u(x, y, t):
        return manufactured_solution(mp, pc, x, y, t)[0]

    ut = (u(x0, y0, t0 + h) - u(x0, y0, t0 - h)) / (2 * h)
    ux = (u(x0 + h, y0, t0) - u(x0 - h, y0, t0)) / (2 * h)
    uy = (u(x0, y0 + h, t0) - u(x0, y0 - h, t0)) / (2 * h)
    # Second differences need a larger step: at h = 1e-6 the cancellation
    # noise (~eps/h^2) swamps the truncation error.
    h2 = 1e-4
    uxx = (u(x0 + h2, y0, t0) - 2 * u(x0, y0, t0) + u(x0 - h2, y0, t0)) / h2**2
    uyy = (u(x0, y0 + h2, t0) - 2 * u(x0, y0, t0) + u(x0, y0 - h2, t0)) / h2**2
    uv, uxv, uyv, utv, lapv, fv = manufactured_solution(mp, pc, x0, y0, t0)
    assert uxv == pytest.approx(ux, rel=1e-4, abs=1e-10)
    assert uyv == pytest.approx(uy, rel=1e-6)
    assert utv == pytest.approx(ut, rel=1e-6)
    assert lapv == pytest.approx(uxx + uyy, rel=1e-4)
    assert fv == pytest.approx(ut - uxx - uyy - (ux**2 + uy**2) ** 1.5,
                               rel=1e-3)


def test_manufactured_origin_rate():
    """u_y(0, 0, t) = d_p (T - t)^(-alpha beta) by construction."""
    pc = profile_constants(3.0)
    mp = manufactured_params(pc, 2.0, 1.0)
    for t in (0.0, 0.5, 0.9):
        _, _, uy, *_ = manufactured_solution(mp, pc, 0.0, 0.0, t)
        assert uy == pytest.approx(pc.d_p * (1.0 - t) ** -1.0, rel=1e-12)


def test_manufactured_forcing_bounded_near_singularity():
    pc = profile_constants(3.0)
    mp = manufactured_params(pc, 3.0, 1.0)
    xs = np.linspace(-0.2, 0.2, 41)
    ys = np.linspace(0.0, 0.2, 41)
    X, Y = np.meshgrid(xs, ys)
    worst = 0.0
    for t in (0.0, 0.9, 0.99, 0.9999):
        f = manufactured_solution(mp, pc, X, Y, t)[5]
        worst = max(worst, float(np.max(np.abs(f))))
    assert np.isfinite(worst)
    assert worst < 50.0


def test_manufactured_zero_at_boundary_y0():
    pc = profile_constants(3.0)
    mp = manufactured_params(pc, 3.0, 1.0)
    u = manufactured_solution(mp, pc, 0.13, 0.0, 0.5)[0]
    assert u == pytest.approx(0.0, abs=1e-15)


def test_manufactured_rejects_t_past_T():
    pc = profile_constants(3.0)
    mp = manufactured_params(pc, 3.0, 1.0)
    with pytest.raises(DomainError):
        manufactured_solution(mp, pc, 0.1, 0.1, 1.5)
    with pytest.raises(SingularityError):
        manufactured_solution(mp, pc, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("p, alpha", [(3.0, 3.0), (2.5, 4.0)])
@pytest.mark.parametrize("n", [33, 129])
def test_bound_manufactured_equals_closed_form(n, p, alpha):
    """Evaluators bound once to a grid's nodes give manufactured_solution's
    values on those nodes bit for bit, call after call."""
    pc = profile_constants(p)
    mp = manufactured_params(pc, alpha, 1.0)
    x = np.linspace(-0.5, 0.5, n)
    y = np.linspace(0.0, 0.5, n)
    X, Y = np.meshgrid(x, y)
    forced = manufactured_callbacks(mp, pc, x, y)
    whole = BoundManufactured(mp, pc, x, y[:, None])
    for t in (0.0, 1e-4, 0.0037, 0.5, 1e-4):
        u, *_, f = manufactured_solution(mp, pc, X, Y, t)
        forcing, (bottom, top, left, right) = forced(t)
        assert forcing.shape == (n - 2, n - 2)
        assert np.array_equal(forcing, f[1:-1, 1:-1])
        assert np.array_equal(bottom, u[0, :])
        assert np.array_equal(top, u[-1, :])
        assert np.array_equal(left, u[:, 0])
        assert np.array_equal(right, u[:, -1])
        assert np.array_equal(whole.u(t), u)
        assert np.array_equal(whole.forcing(t), f)


def test_bound_manufactured_rejects_t_past_T():
    pc = profile_constants(3.0)
    mp = manufactured_params(pc, 3.0, 1.0)
    x = np.linspace(-0.5, 0.5, 9)
    y = np.linspace(0.0, 0.5, 9)
    for call in (manufactured_callbacks(mp, pc, x, y),
                 BoundManufactured(mp, pc, x, y).u):
        with pytest.raises(DomainError):
            call(1.5)


# --------------------------------------------------------------------------
# J-function
# --------------------------------------------------------------------------


def test_j_model_example():
    pc = profile_constants(3.0)
    jp = j_params(pc, k=0.1, q=3.0)
    # gamma = q(1-beta) = 1.5
    assert jp.gamma == pytest.approx(1.5)
    val = j_model(jp, pc, u=0.3, u_x=-0.2, x=0.05, y=0.1)
    expect = -0.2 + 0.1 * 0.05 * 0.1**-1.5 * 1.1 * 0.3**3
    assert val == pytest.approx(expect, rel=1e-12)
    assert val == pytest.approx(-0.195304, abs=5e-7)


def test_j_params_default_q_and_validation():
    pc = profile_constants(3.0)
    assert j_params(pc, 0.25).q == 3.0
    with pytest.raises(DomainError):
        j_params(pc, 0.25, q=1.5)
    with pytest.raises(DomainError):
        j_params(pc, 1.5)


def test_j_model_rejects_y0():
    pc = profile_constants(3.0)
    jp = j_params(pc, 0.1)
    with pytest.raises(SingularityError):
        j_model(jp, pc, 0.3, -0.2, 0.05, 0.0)


@given(k=st.floats(1e-4, 0.99), x=st.floats(0.0, 0.5),
       y=st.floats(1e-3, 1.0), u=st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_j_model_positive_when_ux_zero(k, x, y, u):
    """With u_x = 0 the weighted term makes J >= 0 (monitor is not vacuous)."""
    pc = profile_constants(3.0)
    jp = j_params(pc, k)
    assert j_model(jp, pc, u, 0.0, x, y) >= 0.0
