"""Configuration-driven command line front end.

Subcommands: ground-energy, mane, calibrate, tower, lp, env-report.  Configs
are INI files with sections [environment], [lagrangian], [grid], [lp],
[output]; unknown sections or keys are rejected.  Every output file carries
the config hash (CSV header line, JSON field) and is byte-identical across
reruns with the same config and seed.  Exit codes: 0 ok, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import chain_opt, holonomic_lp, mane, towers
from .environments import (
    EnvPoint,
    canonical_point_section,
    cylinder_at,
    hull_distance,
    translate_env,
    transverse_frequency,
)
from .errors import ConfigError, DomainError, FKError, NumericalFailure, ResourceError
from .exact import AlphaValue
from .lagrangians import LagrangianSpec, circle_model, energy, sturm_model, torus_model

_ALLOWED_KEYS = {
    "environment": {"variant", "alpha", "offset", "phase", "w1", "w2", "seeds"},
    "lagrangian": {"spring", "lambda", "k", "k1", "k2", "a0", "a1"},
    "grid": {
        "h",
        "x",
        "n_max",
        "n_outer",
        "w",
        "n_list",
        "r_max",
        "max_sweeps",
        "newton_polish",
    },
    "lp": {"n", "t_max"},
    "output": {"directory", "formats"},
}


@dataclass
class RunConfig:
    variant: str
    alpha: Optional[AlphaValue]
    offset: float
    phase: float
    w1: float
    w2: float
    seeds: int
    spring: str
    lam: float
    K: float
    K1: float
    K2: float
    a0: float
    a1: float
    grid: chain_opt.GridSpec
    n_list: List[int]
    lp_N: int
    lp_T_max: float
    out_dir: str
    formats: List[str]
    config_hash: str

    def env(self) -> EnvPoint:
        if self.variant == "circle":
            return EnvPoint.circle(self.phase)
        if self.variant == "torus":
            return EnvPoint.torus(self.w1, self.w2)
        return EnvPoint.quasicrystal(self.alpha, self.offset)

    def model(self) -> LagrangianSpec:
        if self.variant == "circle":
            return circle_model(self.K, self.lam, self.spring)
        if self.variant == "torus":
            return torus_model(self.K1, self.K2, self.lam, self.spring)
        return sturm_model(self.alpha, self.a0, self.a1, self.lam)


def _get(cp, section, key, conv, default=None, lo=None, hi=None):
    if not cp.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = cp.get(section, key)
    try:
        val = conv(raw)
    except (ValueError, FKError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc
    if lo is not None and val < lo:
        raise ConfigError(f"[{section}] {key} = {val} below minimum {lo}")
    if hi is not None and val > hi:
        raise ConfigError(f"[{section}] {key} = {val} above maximum {hi}")
    return val


def _parse_bool(raw: str) -> bool:
    v = raw.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def load_config(path: str) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = p.read_bytes()
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(raw.decode("utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    for section in cp.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    variant = _get(cp, "environment", "variant", str)
    if variant not in ("circle", "torus", "quasicrystal"):
        raise ConfigError(f"unknown environment variant {variant!r}")
    alpha = None
    if variant == "quasicrystal":
        alpha = _get(cp, "environment", "alpha", AlphaValue.parse)
    spring = _get(cp, "lagrangian", "spring", str, default="quadratic")
    if spring not in ("quadratic", "quartic"):
        raise ConfigError(f"unknown spring {spring!r}")
    n_list_raw = _get(cp, "grid", "n_list", str, default="4,8,16,32")
    try:
        n_list = [int(s) for s in n_list_raw.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad n_list {n_list_raw!r}") from exc
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])) or n_list[-1] > 64:
        raise ConfigError("n_list must be strictly increasing with max <= 64")
    r_max = _get(cp, "grid", "r_max", float, default=-1.0, lo=-1.0, hi=64.0)
    grid = chain_opt.GridSpec(
        h=_get(cp, "grid", "h", float, default=0.05, lo=1e-4, hi=1.0),
        X=_get(cp, "grid", "x", float, default=2.0, lo=0.1, hi=100.0),
        n_max=_get(cp, "grid", "n_max", int, default=120, lo=1, hi=100_000),
        N_outer=_get(cp, "grid", "n_outer", int, default=64, lo=4, hi=4096),
        W=_get(cp, "grid", "w", int, default=8, lo=1, hi=64),
        R_max=None if r_max < 0 else r_max,
        max_sweeps=_get(cp, "grid", "max_sweeps", int, default=500, lo=0, hi=100_000),
        newton_polish=_get(cp, "grid", "newton_polish", _parse_bool, default=True),
    )
    fmts = _get(cp, "output", "formats", str, default="csv,json")
    formats = [f.strip() for f in fmts.split(",") if f.strip()]
    for f in formats:
        if f not in ("csv", "json"):
            raise ConfigError(f"unknown output format {f!r}")
    return RunConfig(
        variant=variant,
        alpha=alpha,
        offset=_get(cp, "environment", "offset", float, default=0.0),
        phase=_get(cp, "environment", "phase", float, default=0.0),
        w1=_get(cp, "environment", "w1", float, default=0.0),
        w2=_get(cp, "environment", "w2", float, default=0.0),
        seeds=_get(cp, "environment", "seeds", int, default=3, lo=1, hi=64),
        spring=spring,
        lam=_get(cp, "lagrangian", "lambda", float, default=0.0, lo=-32.0, hi=32.0),
        K=_get(cp, "lagrangian", "k", float, default=0.0, lo=0.0, hi=1e4),
        K1=_get(cp, "lagrangian", "k1", float, default=0.0, lo=0.0, hi=1e4),
        K2=_get(cp, "lagrangian", "k2", float, default=0.0, lo=0.0, hi=1e4),
        a0=_get(cp, "lagrangian", "a0", float, default=0.0, lo=0.0, hi=1e4),
        a1=_get(cp, "lagrangian", "a1", float, default=0.0, lo=0.0, hi=1e4),
        grid=grid,
        n_list=n_list,
        lp_N=_get(cp, "lp", "n", int, default=32, lo=8, hi=512),
        lp_T_max=_get(cp, "lp", "t_max", float, default=2.0, lo=0.1, hi=64.0),
        out_dir=_get(cp, "output", "directory", str, default="out"),
        formats=formats,
        config_hash=hashlib.sha256(raw).hexdigest()[:16],
    )


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: Path, config_hash: str, header: List[str], rows) -> None:
    lines = [f"# config_hash={config_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path) -> Dict[str, object]:
    """Bundled reader for the CSV files written by this CLI (lossless floats)."""
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    if not lines[0].startswith("# config_hash="):
        raise ConfigError("missing config hash header line")
    cfg_hash = lines[0].split("=", 1)[1]
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return {"config_hash": cfg_hash, "header": header, "rows": rows}


def write_summary(path: Path, command: str, cfg: RunConfig, seed: int, results, warnings):
    payload = {
        "command": command,
        "config_hash": cfg.config_hash,
        "seed": seed,
        "results": results,
        "warnings": warnings,
    }
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )


# -- commands ----------------------------------------------------------------------


def cmd_ground_energy(cfg: RunConfig, out: Path, seed: int, threads: int) -> List[str]:
    est = chain_opt.ground_energy(
        cfg.model(), cfg.env(), cfg.n_list, cfg.grid, seed=seed, threads=threads
    )
    rows = [(n, m, m / n) for n, m in zip(est.n_list, est.m_values)]
    if "csv" in cfg.formats:
        write_csv(out / "ground_energy.csv", cfg.config_hash, ["n", "m_n", "m_n_over_n"], rows)
    if "json" in cfg.formats:
        write_summary(
            out / "ground_energy_summary.json",
            "ground-energy",
            cfg,
            seed,
            {
                "lower_bound": est.lower_bound,
                "extrapolated": est.extrapolated,
                "inf_pair_sampled": est.inf_pair_sampled,
                "inf_diag_sampled": est.inf_diag_sampled,
                "h": est.h,
            },
            [],
        )
    return []


def _ebar_for(cfg: RunConfig, seed: int, threads: int):
    est = chain_opt.ground_energy(
        cfg.model(), cfg.env(), cfg.n_list, cfg.grid, seed=seed, threads=threads
    )
    return est


def cmd_mane(cfg: RunConfig, out: Path, seed: int, threads: int) -> List[str]:
    est = _ebar_for(cfg, seed, threads)
    table = mane.mane_table(
        cfg.model(), cfg.env(), est.lower_bound, cfg.grid.X, cfg.grid.h, cfg.grid.n_max
    )
    warnings = ["n_max reached on some targets"] if table.truncated else []
    defects = mane.cocycle_defects(cfg.model(), table, samples=12, seed=seed)
    sens = mane.grid_sensitivity(
        cfg.model(), cfg.env(), est.lower_bound, cfg.grid.X, cfg.grid.h, cfg.grid.n_max
    )
    # defect sensitivity to the Ebar choice: rerun key defects at the extrapolated value
    table_x = mane.mane_table(
        cfg.model(), cfg.env(), est.extrapolated, cfg.grid.X, cfg.grid.h, cfg.grid.n_max
    )
    if "csv" in cfg.formats:
        rows = list(zip(table.targets, table.phi, table.n_steps))
        write_csv(out / "mane_potential.csv", cfg.config_hash, ["t", "phi", "n_steps"], rows)
    if "json" in cfg.formats:
        write_summary(
            out / "mane_summary.json",
            "mane",
            cfg,
            seed,
            {
                "ebar_lower_bound": est.lower_bound,
                "ebar_extrapolated": est.extrapolated,
                "cocycle_defects": defects,
                "grid_sensitivity": sens,
                "phi_shift_between_ebar_choices": float(
                    np.max(np.abs(table.phi - table_x.phi))
                ),
            },
            warnings,
        )
    return warnings


def cmd_calibrate(cfg: RunConfig, out: Path, seed: int, threads: int) -> List[str]:
    est = _ebar_for(cfg, seed, threads)
    report = mane.calibrate_window(
        cfg.model(), cfg.env(), est.lower_bound, cfg.grid.N_outer, cfg.grid.W, cfg.grid
    )
    if "csv" in cfg.formats:
        rows = [(int(m), int(n), d) for m, n, d in report.defects]
        write_csv(out / "calibration.csv", cfg.config_hash, ["m", "n", "defect"], rows)
    if "json" in cfg.formats:
        write_summary(
            out / "calibrate_summary.json",
            "calibrate",
            cfg,
            seed,
            {
                "max_defect": report.max_defect,
                "rotation": report.rotation,
                "max_jump": report.max_jump,
                "min_jump": report.min_jump,
                "strictly_monotone": report.strictly_monotone,
                "ebar": report.ebar,
                "window": list(report.window),
            },
            [],
        )
    return []


def cmd_tower(cfg: RunConfig, out: Path, seed: int, threads: int) -> List[str]:
    if cfg.variant != "quasicrystal":
        raise ConfigError("tower command needs a quasicrystal environment")
    window = max(100_000.0, 2000.0 * cfg.alpha.max_gap())
    t0 = towers.level0_tower(cfg.alpha, window)
    t1, m01 = towers.induce_tower(t0, cfg.alpha, window)
    t2, m12 = towers.induce_tower(t1, cfg.alpha, window)
    res01 = towers.tower_measure_residual(t0, t1, m01)
    res12 = towers.tower_measure_residual(t1, t2, m12)
    floor_rows = []
    for tw in (t0, t1, t2):
        for i, (lab, hgt) in enumerate(zip(tw.labels, tw.heights)):
            floor_rows.append(
                (tw.level, i, "".join(str(g) for g in lab), hgt, float(tw.nu[i]))
            )
    hom_rows = []
    for lvl, m in ((0, m01), (1, m12)):
        for a in range(m.entries.shape[0]):
            for b in range(m.entries.shape[1]):
                hom_rows.append((lvl, a, b, int(m.entries[a, b])))
    if "csv" in cfg.formats:
        write_csv(
            out / "tower_floors.csv",
            cfg.config_hash,
            ["level", "floor", "label", "height", "nu"],
            floor_rows,
        )
        write_csv(
            out / "tower_homology.csv",
            cfg.config_hash,
            ["lower_level", "row", "col", "count"],
            hom_rows,
        )
    if "json" in cfg.formats:
        write_summary(
            out / "tower_summary.json",
            "tower",
            cfg,
            seed,
            {
                "window": window,
                "residual_01": res01,
                "residual_12": res12,
                "mass_level0": t0.measure_mass(),
                "periodic": t0.periodic,
                "floors": [len(t0.labels), len(t1.labels), len(t2.labels)],
            },
            [],
        )
    return []


def cmd_lp(cfg: RunConfig, out: Path, seed: int, threads: int) -> List[str]:
    if cfg.variant != "circle":
        raise ConfigError("lp command needs a circle environment")
    try:
        lp = holonomic_lp.discretize_circle(cfg.model(), cfg.lp_N, cfg.lp_T_max)
    except (DomainError, ResourceError) as exc:
        # T_max below lambda + 1 or an over-cap arc count: both are config mistakes
        raise ConfigError(f"[lp] {exc}") from exc
    measure, primal = holonomic_lp.solve_primal(lp)
    dual = holonomic_lp.solve_dual(lp, measure)
    support = holonomic_lp.mather_support(measure)
    if "csv" in cfg.formats:
        rows = [
            (j, k, k / lp.N, float(measure.weights[j, k + (lp.jumps.size - 1) // 2]))
            for j, k in support
        ]
        write_csv(out / "lp_support.csv", cfg.config_hash, ["j", "k", "t", "weight"], rows)
    if "json" in cfg.formats:
        write_summary(
            out / "lp_summary.json",
            "lp",
            cfg,
            seed,
            {
                "N": lp.N,
                "T_max": cfg.lp_T_max,
                "primal": primal,
                "dual": dual.value,
                "gap": primal - dual.value,
                "support_size": len(support),
                "projection": holonomic_lp.support_projection(support),
            },
            [],
        )
    return []


def cmd_env_report(cfg: RunConfig, out: Path, seed: int, threads: int) -> List[str]:
    env = cfg.env()
    results: Dict[str, object] = {"variant": cfg.variant}
    rows = []
    if cfg.variant == "quasicrystal":
        alpha = cfg.alpha
        N = 100_000
        pts = env.pset.points_in(0.0, float(N))
        gaps = np.diff(pts)
        letters, counts = np.unique(np.rint(gaps).astype(int), return_counts=True)
        rows = list(zip(letters, counts, counts / gaps.size))
        count_law = int(np.sum(np.asarray(alpha.membership_range(1, N))))
        freq = transverse_frequency(env, canonical_point_section(env), 2000.0)
        rng = np.random.default_rng(seed)
        dists = []
        for _ in range(cfg.seeds):
            off = float(rng.uniform(0.0, 10.0))
            dists.append(hull_distance(env, translate_env(env, off), 16.0))
        results.update(
            {
                "alpha": str(alpha),
                "alpha_value": alpha.value,
                "inv_floor": alpha.inv_floor(),
                "count_in_1_to_N": count_law,
                "floor_N_alpha": alpha.floor_mul(N),
                "point_frequency": freq,
                "hull_distance_samples": dists,
            }
        )
    else:
        model = cfg.model()
        results.update(
            {
                "sample_energy_origin": energy(model, env, 0.0, model.lam),
                "phase": cfg.phase if cfg.variant == "circle" else [cfg.w1, cfg.w2],
            }
        )
    if "csv" in cfg.formats and rows:
        write_csv(
            out / "env_gaps.csv", cfg.config_hash, ["gap", "count", "frequency"], rows
        )
    if "json" in cfg.formats:
        write_summary(out / "env_report.json", "env-report", cfg, seed, results, [])
    return []


_COMMANDS = {
    "ground-energy": cmd_ground_energy,
    "mane": cmd_mane,
    "calibrate": cmd_calibrate,
    "tower": cmd_tower,
    "lp": cmd_lp,
    "env-report": cmd_env_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fklab",
        description="Frenkel-Kontorova chain laboratory: ground energies, Mane "
        "potentials, calibration defects, towers, and the holonomic LP.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the INI run config")
    parser.add_argument("--out", default="./out", help="output directory (default ./out)")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        warnings = _COMMANDS[args.command](cfg, out, args.seed, max(1, args.threads))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, FKError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - t0
    # wall time goes to the console only; output files stay byte-reproducible
    print(f"{args.command}: ok in {elapsed:.2f}s ({len(warnings)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
