"""Custom problem instances used across the test modules."""

import dataclasses

import numpy as np

from fbsde_nearopt.model import (
    Coefficient,
    DriverCoefficient,
    InitialCoefficient,
    LQParams,
    TerminalCoefficient,
    make_lq_instance,
    zero_driver,
)


def scalar_driver(value, du=None, dy=None):
    """Driver coefficient l(t,x,y,z1,z2,u) -> (P,) with optional partials."""
    zero_vec = lambda t, x, y, z1, z2, u: np.zeros((x.shape[0], x.shape[1]))
    return DriverCoefficient(
        value=value,
        dx=zero_vec,
        dy=dy or zero_vec,
        dz1=zero_vec,
        dz2=zero_vec,
        du=du or zero_vec,
    )


def pure_noise_instance(sigma=1.0, phi_terminal=None, phi_dx=None, g_cost=0.0):
    """dx = sigma dW, zero costs unless overridden; x(0) = 0."""
    base = make_lq_instance(
        LQParams(a=0.0, b_coef=0.0, sigma=sigma, q=0.0, r=1.0, g=g_cost, initial_x=0.0)
    )
    if phi_terminal is not None:
        base = dataclasses.replace(
            base,
            terminal_Phi=TerminalCoefficient(value=phi_terminal, dx=phi_dx),
            label="pure_noise",
        )
    return base


def constant_running_cost_instance(level=1.0):
    """l == level, everything else trivial (J = level * T exactly)."""
    base = make_lq_instance(LQParams(b_coef=0.0, sigma=1.0, q=0.0, r=1.0, g=0.0, initial_x=0.0))
    running = scalar_driver(lambda t, x, y, z1, z2, u: np.full(x.shape[0], level))
    return dataclasses.replace(base, running_l=running, label="constant_l")


def control_only_cost_instance(target=0.3):
    """l = (u - target)^2 with control-free dynamics."""
    base = make_lq_instance(LQParams(b_coef=0.0, sigma=0.5, q=0.0, r=1.0, g=0.0))

    def l_val(t, x, y, z1, z2, u):
        uu = float(np.atleast_1d(u)[0])
        return np.full(x.shape[0], (uu - target) ** 2)

    def l_du(t, x, y, z1, z2, u):
        uu = float(np.atleast_1d(u)[0])
        return np.full((x.shape[0], 1), 2.0 * (uu - target))

    return dataclasses.replace(
        base, running_l=scalar_driver(l_val, du=l_du), label="control_only"
    )


def linear_gap_instance(slope=2.0):
    """l = slope * u with all dynamics control-free; H_u == slope exactly."""
    base = make_lq_instance(LQParams(b_coef=0.0, sigma=0.3, q=0.0, r=1.0, g=0.0, initial_x=0.0))

    def l_val(t, x, y, z1, z2, u):
        uu = float(np.atleast_1d(u)[0])
        return np.full(x.shape[0], slope * uu)

    def l_du(t, x, y, z1, z2, u):
        return np.full((x.shape[0], 1), slope)

    return dataclasses.replace(
        base, running_l=scalar_driver(l_val, du=l_du), label="linear_gap"
    )


def linear_bsde_instance(beta=2.0, sigma=1.0):
    """f = beta * y, phi(x) = x, driftless unit-diffusion state.

    Closed form (from the plus-sign driver convention of the state system):
    y_t = exp(-beta (T - t)) x_t.
    """
    base = make_lq_instance(
        LQParams(a=0.0, b_coef=1.0, sigma=sigma, q=0.0, r=1.0, g=0.0, initial_x=0.0)
    )

    def f_val(t, x, y, z1, z2, u):
        return beta * y

    def f_dy(t, x, y, z1, z2, u):
        return np.full((x.shape[0], 1, 1), beta)

    def f_dzero(t, x, y, z1, z2, u):
        return np.zeros((x.shape[0], 1, 1))

    f = DriverCoefficient(
        value=f_val, dx=f_dzero, dy=f_dy, dz1=f_dzero, dz2=f_dzero, du=f_dzero
    )
    return dataclasses.replace(base, backward_f=f, label="linear_bsde")


def linear_gamma_instance(c=0.7):
    """gamma(y) = c * y so that k(0) = -c exactly."""
    base = make_lq_instance(LQParams())
    gamma = InitialCoefficient(
        value=lambda y: c * y[:, 0], dy=lambda y: np.full_like(y, c)
    )
    return dataclasses.replace(base, initial_gamma=gamma, label="linear_gamma")


def constant_gamma_instance(c=0.5):
    """gamma(y) = c: the cost reads y(0) through gamma's value, but
    k(0) = -gamma_y = 0, so the adjoint reads no backward value."""
    base = make_lq_instance(LQParams())
    gamma = dataclasses.replace(base.initial_gamma, value=lambda y: np.full(y.shape[0], c))
    return dataclasses.replace(base, initial_gamma=gamma, label="constant_gamma")


def concave_control_cost_instance():
    """Running cost with a -|u|^2 term (Hessian eigenvalue -2 in u)."""
    base = make_lq_instance(LQParams(q=1.0))

    def l_val(t, x, y, z1, z2, u):
        uu = float(np.atleast_1d(u)[0])
        return 0.5 * x[:, 0] ** 2 - np.full(x.shape[0], uu * uu)

    def l_du(t, x, y, z1, z2, u):
        uu = float(np.atleast_1d(u)[0])
        return np.full((x.shape[0], 1), -2.0 * uu)

    def l_dx(t, x, y, z1, z2, u):
        return x.copy()

    running = dataclasses.replace(scalar_driver(l_val, du=l_du), dx=l_dx)
    return dataclasses.replace(base, running_l=running, label="concave_u")


def explosive_instance():
    """Drift large enough that Euler blows past the guard threshold."""
    return make_lq_instance(LQParams(a=1e7, b_coef=0.0, sigma=0.0, initial_x=1.0))


def wrong_derivative_instance():
    """LQ instance whose declared drift x-partial is off by a factor 2."""
    base = make_lq_instance(LQParams(a=0.8))

    def bad_dx(t, x, u):
        return np.full((x.shape[0], 1, 1), 2 * 0.8)

    drift = dataclasses.replace(base.drift_b, dx=bad_dx)
    return dataclasses.replace(base, drift_b=drift, label="wrong_bx")


def nan_observation_instance():
    """Observation drift returning NaN on a region sampling will hit."""
    base = make_lq_instance(LQParams())

    def h_val(t, x, u):
        out = np.zeros(x.shape[0])
        out[np.abs(x[:, 0]) < 1.0] = np.nan
        return out

    h = Coefficient(
        value=h_val,
        dx=lambda t, x, u: np.zeros((x.shape[0], 1)),
        du=lambda t, x, u: np.zeros((x.shape[0], 1)),
    )
    return dataclasses.replace(base, observation_h=h, label="nan_h")


def value_as_backward_instance(base):
    """``base`` with driver f = -l and terminal map phi = Phi.

    When l does not depend on y, the backward state (y, z1, z2) solves the
    value system's equation dr = -l dt + R1 dW + R2 dW^u, r(T) = Phi(x(T)).
    """
    l, Phi = base.running_l, base.terminal_Phi

    def negated(fn):
        return lambda t, x, y, z1, z2, u: -fn(t, x, y, z1, z2, u)[:, None]

    driver = DriverCoefficient(
        value=negated(l.value),
        dx=negated(l.dx),
        dy=negated(l.dy),
        dz1=negated(l.dz1),
        dz2=negated(l.dz2),
        du=negated(l.du),
    )
    phi = TerminalCoefficient(
        value=lambda x: Phi.value(x)[:, None], dx=lambda x: Phi.dx(x)[:, None, :]
    )
    return dataclasses.replace(
        base,
        backward_f=driver,
        terminal_phi=phi,
        phi_linear=False,
        label=f"{base.label}_value_as_backward",
    )


def cost_through_y_twin(base):
    """``value_as_backward_instance(base)`` with l = Phi = 0 and gamma(y) = y.

    The cost is carried by the backward state alone: with f = -l the twin's
    y(0) is the original's running plus terminal cost, so on h == 0 families
    J_twin = J exactly.  (With h != 0 the driver's z2 * h term is only the
    linearized density, and the two differ by O(dt).)
    """
    return dataclasses.replace(
        value_as_backward_instance(base),
        running_l=zero_driver(),
        terminal_Phi=TerminalCoefficient(value=lambda x: 0.0, dx=lambda x: 0.0),
        initial_gamma=InitialCoefficient(value=lambda y: y[:, 0], dy=lambda y: 1.0),
        label=f"{base.label}_twin",
    )
