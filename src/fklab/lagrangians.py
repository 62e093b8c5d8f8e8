"""Model catalog: two-point energies E_omega(x, y) = W(y - x) + V(tau_x omega).

Springs: quadratic W(t) = |t - lam|^2/2 or quartic W(t) = |t - lam|^4/4.
Potentials, each named by the environment kind it binds: ``"circle"`` (a
cosine), ``"torus"`` (a double cosine along the (1, sqrt 2) line), or
``"quasicrystal"`` (strongly equivariant bumps over a Beatty point set).
The bump shape is b(s) = s^2 (1-s)^2 rescaled to the gap support, which
gives closed-form test values (b(1/2) = 1/16).

The paper's two hypotheses hold in closed form for every catalog model, so
nothing samples them:

- twist: -d2E/dxdy = W''(y - x), which is 1 for the quadratic spring and
  3 (y - x - lam)^2 >= 0 for the quartic one (a weak twist, degenerate on
  the line y - x = lam); the monotone DPs downstream rely on it;
- superlinearity: W(t)/|t| -> infinity for both springs, and every
  potential is bounded (0 <= V <= 2K/(2 pi)^2 per cosine, max(a0, a1)/16
  per bump), so E(x, y)/|y - x| -> infinity uniformly in x.

``LagrangianSpec`` refuses a negative or NaN amplitude, so inf V = 0 for
every model: at x = -phase on the circle, near the common zeros of both
cosines that the dense (1, sqrt 2) line passes arbitrarily close to, and at
each Beatty point.  The a-priori ends of the ground energy,
inf E <= Ebar <= inf_x E(x, x), are then exactly 0 = W(lam) + inf V and W(0).
``potential_slope_sup`` gives sup |V'| in closed form as well.

Each term has two evaluators: ``spring_value``/``potential_values`` for the
energy and ``spring_derivs``/``potential_derivs`` for the first and second
derivatives that the Newton refinement needs together, so the family
dispatch (and, for bumps, the gap lookup) happens once per derivative pair.
Values stay separate: the Mane cost fill and the DP tables evaluate W and V
on large arrays where derivatives would be wasted work.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .environments import SQRT2, EnvPoint
from .errors import DomainError
from .exact import AlphaValue

TWO_PI = 2.0 * math.pi

_SPRINGS = ("quadratic", "quartic")
_POTENTIALS = ("circle", "torus", "quasicrystal")


class _LagrangianFields(NamedTuple):
    spring: str
    lam: float
    potential: str
    K: float = 0.0
    K1: float = 0.0
    K2: float = 0.0
    a0: float = 0.0
    a1: float = 0.0
    alpha: Optional[AlphaValue] = None


class LagrangianSpec(_LagrangianFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.spring not in _SPRINGS:
            raise DomainError(f"unknown spring {self.spring!r}")
        if self.potential not in _POTENTIALS:
            raise DomainError(f"unknown potential {self.potential!r}")
        if self.potential == "quasicrystal":
            if self.alpha is None:
                raise DomainError("bump potential needs the point-set slope alpha")
            if self.spring == "quartic":
                raise DomainError("quartic spring is only cataloged with circle/torus potentials")
        for name in ("K", "K1", "K2", "a0", "a1"):
            amp = getattr(self, name)
            if not amp >= 0.0:  # negated, so that a NaN amplitude is refused too
                raise DomainError(f"amplitude {name} must be nonnegative, got {amp}")
        return self


def circle_model(K: float, lam: float, spring: str = "quadratic") -> LagrangianSpec:
    return LagrangianSpec(spring, float(lam), "circle", K=float(K))


def torus_model(K1: float, K2: float, lam: float, spring: str = "quadratic") -> LagrangianSpec:
    return LagrangianSpec(spring, float(lam), "torus", K1=float(K1), K2=float(K2))


def sturm_model(
    alpha: AlphaValue, a0: float, a1: float, lam: float, spring: str = "quadratic"
) -> LagrangianSpec:
    return LagrangianSpec(
        spring, float(lam), "quasicrystal", a0=float(a0), a1=float(a1), alpha=alpha
    )


def _check_variant(model: LagrangianSpec, env: EnvPoint):
    if model.potential != env.kind:
        raise DomainError(f"model binds {model.potential!r} environments, got {env.kind!r}")
    if model.alpha is not None and model.alpha != env.pset.alpha:
        raise DomainError("the bump model and the point set have different slopes alpha")


# -- spring ------------------------------------------------------------------


def spring_value(model, t):
    t = np.asarray(t, dtype=float)
    u = t - model.lam
    if model.spring == "quadratic":
        return 0.5 * u * u
    # products, not u ** 4: numpy's array power can differ from the scalar
    # power in the last bit, and an energy must not depend on the input shape
    u2 = u * u
    return 0.25 * u2 * u2


def spring_derivs(model, t):
    """(W'(t), W''(t)) over an array of steps t."""
    t = np.asarray(t, dtype=float)
    u = t - model.lam
    if model.spring == "quadratic":
        return u, np.ones_like(u)
    return u ** 3, 3.0 * u * u


# -- potentials ---------------------------------------------------------------


def _bump_tables(model, env, xs):
    """Locate the gap around each x; return (amp, L, s) arrays.

    The padded window holds a point at or left of every x and one right of
    it; ``points_in`` reads it from the slope's memoized index blocks.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    pad = env.pset.alpha.max_gap() + 1.0
    pts = env.pset.points_in(xs.min() - pad, xs.max() + pad)
    if pts.size < 2:
        raise DomainError("window materialization failed, set not relatively dense?")
    i = np.searchsorted(pts, xs, side="right") - 1
    i = np.clip(i, 0, pts.size - 2)
    left = pts[i]
    gap = np.rint(pts[i + 1] - left).astype(np.int64)
    g0 = model.alpha.inv_floor()
    amp = np.where(gap == g0, model.a0, model.a1)
    L = gap.astype(float)
    s = (xs - left) / L
    return amp, L, s


def potential_values(model, env, xs):
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    if model.potential == "circle":
        v = model.K / TWO_PI ** 2 * (1.0 - np.cos(TWO_PI * (env.phase + xs_arr)))
    elif model.potential == "torus":
        v = model.K1 / TWO_PI ** 2 * (1.0 - np.cos(TWO_PI * (env.w1 + xs_arr)))
        v = v + model.K2 / TWO_PI ** 2 * (1.0 - np.cos(TWO_PI * (env.w2 + xs_arr * SQRT2)))
    else:
        amp, L, s = _bump_tables(model, env, xs_arr)
        v = amp * s * s * (1.0 - s) ** 2
    return v if np.ndim(xs) else float(v[0])


def potential_derivs(model, env, xs):
    """(V'(x), V''(x)) over an array of positions xs.

    One family dispatch serves both derivatives; the bump family locates the
    gaps around xs once.
    """
    xs = np.asarray(xs, dtype=float)
    if model.potential == "circle":
        arg = TWO_PI * (env.phase + xs)
        return model.K / TWO_PI * np.sin(arg), model.K * np.cos(arg)
    if model.potential == "torus":
        arg1, arg2 = TWO_PI * (env.w1 + xs), TWO_PI * (env.w2 + xs * SQRT2)
        d1 = model.K1 / TWO_PI * np.sin(arg1) + model.K2 * SQRT2 / TWO_PI * np.sin(arg2)
        d2 = model.K1 * np.cos(arg1) + 2.0 * model.K2 * np.cos(arg2)
        return d1, d2
    amp, L, s = _bump_tables(model, env, xs)
    d1 = amp * 2.0 * s * (1.0 - s) * (1.0 - 2.0 * s) / L
    d2 = amp * 2.0 * (6.0 * s * s - 6.0 * s + 1.0) / (L * L)
    return d1, d2


def potential_slope_sup(model: LagrangianSpec) -> float:
    """sup |V'| over every environment of the model's family, in closed form.

    K/2pi for the circle and (K1 + sqrt 2 K2)/2pi for the torus, whose line is
    dense.  A bump on a gap L has |V'| = amp 2 |s (1 - s)(1 - 2s)| / L, and
    s (1 - s)(1 - 2s) peaks at sqrt 3/18 (s = (3 - sqrt 3)/6); the short gap
    g0 = ``inv_floor()`` carries a0 and the long gap g0 + 1 carries a1 (at
    alpha = 1/q every gap is short, and the value is a bound, not attained).
    """
    if model.potential == "circle":
        return model.K / TWO_PI
    if model.potential == "torus":
        return (model.K1 + SQRT2 * model.K2) / TWO_PI
    g0 = model.alpha.inv_floor()
    return math.sqrt(3.0) / 9.0 * max(model.a0 / g0, model.a1 / (g0 + 1))


# -- energies -----------------------------------------------------------------


def energy(
    model: LagrangianSpec, env: EnvPoint, x: float | np.ndarray, y: float | np.ndarray
) -> float | np.ndarray:
    """E_omega(x, y) = W(y - x) + V(tau_x omega), broadcast over array x and y.

    V is evaluated once per entry of x; scalar x and y give a float.
    """
    _check_variant(model, env)
    e = spring_value(model, np.subtract(y, x)) + potential_values(model, env, x)
    return e if np.ndim(e) else float(e)


def chain_energy(model: LagrangianSpec, env: EnvPoint, positions) -> float:
    """Sum of pairwise energies along the chain."""
    _check_variant(model, env)
    xs = np.asarray(positions, dtype=float)
    if xs.size < 2:
        raise DomainError("a chain needs at least two points")
    w = spring_value(model, np.diff(xs))
    v = potential_values(model, env, xs[:-1])
    return float(np.sum(w) + np.sum(v))
