"""Model catalog: two-point energies E_omega(x, y) = W(y - x) + V(tau_x omega).

Springs: quadratic W(t) = |t - lam|^2/2 or quartic W(t) = |t - lam|^4/4.
Potentials: circle cosine, torus double cosine along the (1, sqrt 2) line, or
strongly equivariant bump potentials over a Beatty point set.  The bump shape
is b(s) = s^2 (1-s)^2 rescaled to the gap support, which gives closed-form
test values (b(1/2) = 1/16).  Both springs are weakly convex, so
-d2E/dxdy = W'' >= 0 and every catalog model is weakly twist; the monotone
DPs downstream rely on that without a per-model check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .environments import SQRT2, EnvPoint, translate_env
from .errors import DomainError
from .exact import AlphaValue

TWO_PI = 2.0 * math.pi

_SPRINGS = ("quadratic", "quartic")
_POTENTIALS = ("circle_cosine", "torus_double_cosine", "quasicrystal_bumps")


@dataclass(frozen=True)
class LagrangianSpec:
    spring: str
    lam: float
    potential: str
    K: float = 0.0
    K1: float = 0.0
    K2: float = 0.0
    a0: float = 0.0
    a1: float = 0.0
    alpha: Optional[AlphaValue] = None

    def __post_init__(self):
        if self.spring not in _SPRINGS:
            raise DomainError(f"unknown spring {self.spring!r}")
        if self.potential not in _POTENTIALS:
            raise DomainError(f"unknown potential {self.potential!r}")
        if self.potential == "quasicrystal_bumps":
            if self.alpha is None:
                raise DomainError("bump potential needs the point-set slope alpha")
            if self.spring == "quartic":
                raise DomainError("quartic spring is only cataloged with circle/torus potentials")

    @property
    def env_kind(self) -> str:
        return {
            "circle_cosine": "circle",
            "torus_double_cosine": "torus",
            "quasicrystal_bumps": "quasicrystal",
        }[self.potential]


def circle_model(K: float, lam: float, spring: str = "quadratic") -> LagrangianSpec:
    return LagrangianSpec(spring, float(lam), "circle_cosine", K=float(K))


def torus_model(K1: float, K2: float, lam: float, spring: str = "quadratic") -> LagrangianSpec:
    return LagrangianSpec(spring, float(lam), "torus_double_cosine", K1=float(K1), K2=float(K2))


def sturm_model(alpha: AlphaValue, a0: float, a1: float, lam: float) -> LagrangianSpec:
    return LagrangianSpec(
        "quadratic", float(lam), "quasicrystal_bumps", a0=float(a0), a1=float(a1), alpha=alpha
    )


def _check_variant(model: LagrangianSpec, env: EnvPoint):
    if model.env_kind != env.kind:
        raise DomainError(f"model binds {model.env_kind!r} environments, got {env.kind!r}")


# -- spring ------------------------------------------------------------------


def spring_value(model, t):
    t = np.asarray(t, dtype=float)
    u = t - model.lam
    if model.spring == "quadratic":
        return 0.5 * u * u
    return 0.25 * u ** 4


def spring_d1(model, t):
    t = np.asarray(t, dtype=float)
    u = t - model.lam
    if model.spring == "quadratic":
        return u
    return u ** 3


def spring_d2(model, t):
    t = np.asarray(t, dtype=float)
    u = t - model.lam
    if model.spring == "quadratic":
        return np.ones_like(u)
    return 3.0 * u * u


# -- potentials ---------------------------------------------------------------


def _bump_tables(model, env, xs):
    """Locate the gap around each x; return (amp, L, s) arrays.

    The points come from the slope's shared index table, so a call costs a
    lookup rather than a fresh exact materialization.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    pad = env.pset.alpha.max_gap() + 1.0
    pts = env.pset.tabulated_points(xs.min() - pad, xs.max() + pad)
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
    if model.potential == "circle_cosine":
        v = model.K / TWO_PI ** 2 * (1.0 - np.cos(TWO_PI * (env.phase + xs_arr)))
    elif model.potential == "torus_double_cosine":
        v = model.K1 / TWO_PI ** 2 * (1.0 - np.cos(TWO_PI * (env.w1 + xs_arr)))
        v = v + model.K2 / TWO_PI ** 2 * (1.0 - np.cos(TWO_PI * (env.w2 + xs_arr * SQRT2)))
    else:
        amp, L, s = _bump_tables(model, env, xs_arr)
        v = amp * s * s * (1.0 - s) ** 2
    return v if np.ndim(xs) else float(v[0])


def potential_d1(model, env, xs):
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    if model.potential == "circle_cosine":
        v = model.K / TWO_PI * np.sin(TWO_PI * (env.phase + xs_arr))
    elif model.potential == "torus_double_cosine":
        v = model.K1 / TWO_PI * np.sin(TWO_PI * (env.w1 + xs_arr))
        v = v + model.K2 * SQRT2 / TWO_PI * np.sin(TWO_PI * (env.w2 + xs_arr * SQRT2))
    else:
        amp, L, s = _bump_tables(model, env, xs_arr)
        v = amp * 2.0 * s * (1.0 - s) * (1.0 - 2.0 * s) / L
    return v if np.ndim(xs) else float(v[0])


def potential_d2(model, env, xs):
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    if model.potential == "circle_cosine":
        v = model.K * np.cos(TWO_PI * (env.phase + xs_arr))
    elif model.potential == "torus_double_cosine":
        v = model.K1 * np.cos(TWO_PI * (env.w1 + xs_arr))
        v = v + 2.0 * model.K2 * np.cos(TWO_PI * (env.w2 + xs_arr * SQRT2))
    else:
        amp, L, s = _bump_tables(model, env, xs_arr)
        v = amp * 2.0 * (6.0 * s * s - 6.0 * s + 1.0) / (L * L)
    return v if np.ndim(xs) else float(v[0])


def equivariant_potential(model: LagrangianSpec, env: EnvPoint, x: float) -> float:
    """V at x for the bump family: select U_0/U_1 by the gap type around x."""
    if model.potential != "quasicrystal_bumps":
        raise DomainError("equivariant_potential is defined for the bump family")
    _check_variant(model, env)
    return potential_values(model, env, float(x))


# -- energies -----------------------------------------------------------------


def energy(model: LagrangianSpec, env: EnvPoint, x: float, y: float) -> float:
    """E_omega(x, y) = W(y - x) + V(tau_x omega)."""
    _check_variant(model, env)
    return float(spring_value(model, y - x)) + float(potential_values(model, env, x))


def chain_energy(model: LagrangianSpec, env: EnvPoint, positions) -> float:
    """Sum of pairwise energies along the chain."""
    _check_variant(model, env)
    xs = np.asarray(positions, dtype=float)
    if xs.size < 2:
        raise DomainError("a chain needs at least two points")
    w = spring_value(model, np.diff(xs))
    v = potential_values(model, env, xs[:-1])
    return float(np.sum(w) + np.sum(np.atleast_1d(v)))


def twist_defect(model: LagrangianSpec, env: EnvPoint, box, grid: int) -> float:
    """Max over grid samples of the finite-difference mixed second derivative.

    Negative return values certify the sampled weakly twist property; the FD
    step is tied to the box size (width / (4 grid)).
    """
    _check_variant(model, env)
    if grid < 8:
        raise DomainError("grid must be at least 8")
    (x_lo, x_hi), (y_lo, y_hi) = box
    h = min(x_hi - x_lo, y_hi - y_lo) / (4.0 * grid)
    xs = np.linspace(x_lo, x_hi, grid)
    ys = np.linspace(y_lo, y_hi, grid)
    X, Y = np.meshgrid(xs, ys, indexing="ij")

    def val(xx, yy):
        w = spring_value(model, yy - xx)
        v = potential_values(model, env, xx.ravel()).reshape(xx.shape)
        return w + v

    fd = (
        val(X + h, Y + h) - val(X + h, Y - h) - val(X - h, Y + h) + val(X - h, Y - h)
    ) / (4.0 * h * h)
    return float(fd.max())


def coercivity_probe(model: LagrangianSpec, env: EnvPoint, radii: Sequence[float]):
    """Sampled infima of E over |y - x| >= R along a radius ladder.

    Sample jumps are drawn from one master set so the reported infima are
    monotone by construction (nested sample sets); a sanity report, not a
    proof of coercivity.
    """
    _check_variant(model, env)
    radii = sorted(float(r) for r in radii)
    if len(radii) < 2:
        raise DomainError("need a ladder of at least two radii")
    extras = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    master = np.unique(np.concatenate([r + extras for r in radii]))
    master = np.concatenate([master, -master])
    span = 1.0 if model.potential != "quasicrystal_bumps" else float(model.alpha.max_gap() * 8)
    xs = np.linspace(0.0, span, 41)
    vx = np.atleast_1d(potential_values(model, env, xs))
    out = []
    for r in radii:
        ts = master[np.abs(master) >= r - 1e-12]
        tot = spring_value(model, ts)[None, :] + vx[:, None]
        out.append((r, float(tot.min())))
    return out
