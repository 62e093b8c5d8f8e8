"""Configuration-driven command line front end.

``fklab COMMAND --config PATH [--out DIR] [--seed U64]``, with the flags in
any order as ``--flag value`` or ``--flag=value``; the obsolete ``--threads
N`` is read and ignored.  The command line is read here rather than by
argparse, which would load gettext (and locale, on its first message) into
every command process.  Commands: ground-energy, mane, calibrate, tower, lp,
env-report.

Configs are INI files with sections [environment], [lagrangian], [grid],
[lp], [output]; unknown sections or keys are rejected.  ``load_config``
builds the model and environment once through the catalog constructors,
whose rules decide which springs and potentials combine.  ``fractions``
loads only when a quasicrystal config builds its exact offset
(``EnvPoint.quasicrystal``), never for a circle or torus run.  Each command
returns its CSV tables and summary results, and ``main`` writes them all
into ``--out`` (default: the config's ``[output] directory``).  Every output
file carries the config hash (CSV header line, JSON field) and is
byte-identical across reruns with the same config and seed.

Exit codes: 0 ok, 2 a malformed command line or a config error (including a
``DomainError`` or ``ResourceError`` raised by the catalog or a solver on the
configured sizes, and an output directory that cannot be created), 3
numerical failure (``NumericalFailure``, ``InsufficientDataError``, a
non-finite summary value).  A run that fails writes no file and creates no
output directory.
"""

from __future__ import annotations

import configparser
import gc
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import numpy as np

# SHA-256 from CPython's built-in module: hashlib would also load OpenSSL's
# libcrypto (about 3.5 MB of RSS and 3 ms) to hash a config of a few hundred
# bytes; the digest is the same
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import chain_opt, holonomic_lp, mane, towers
from ._rng import Rng
from .environments import EnvPoint, hull_distance, translate_env
from .errors import ConfigError, DomainError, FKError, NumericalFailure, ResourceError
from .exact import AlphaValue
from .lagrangians import LagrangianSpec, circle_model, energy, sturm_model, torus_model

_ALLOWED_KEYS = {
    "environment": {"variant", "alpha", "offset", "phase", "w1", "w2", "seeds"},
    "lagrangian": {"spring", "lambda", "k", "k1", "k2", "a0", "a1"},
    # n_max is obsolete and read by nothing (the Mane DP searches chains of any
    # length); it is still accepted so that existing configs keep loading
    "grid": {"h", "x", "n_max", "n_outer", "w", "n_list", "r_max"},
    "lp": {"n", "t_max"},
    "output": {"directory"},
}
# Beatty indices a command may read on either side of floor(offset): more than
# env-report's 1e5-wide gap window and the widest chain (n_outer 4096 x r_max 64)
_OFFSET_REACH = 1 << 20


class RunConfig(NamedTuple):
    model: LagrangianSpec
    env: EnvPoint
    seeds: int
    grid: chain_opt.GridSpec
    n_list: List[int]
    lp_N: int
    lp_T_max: float
    out_dir: str
    config_hash: str


def _get(cp, section, key, conv, default=None, lo=None, hi=None):
    if not cp.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    try:
        raw = cp.get(section, key)
    except configparser.Error as exc:  # a stray '%' fails interpolation
        raise ConfigError(f"bad value for [{section}] {key} ({exc})") from exc
    try:
        val = conv(raw)
    except (ValueError, FKError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc
    # negated comparisons, so that a NaN fails every bound
    if lo is not None and not val >= lo:
        raise ConfigError(f"[{section}] {key} = {val} below minimum {lo}")
    if hi is not None and not val <= hi:
        raise ConfigError(f"[{section}] {key} = {val} above maximum {hi}")
    return val


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
    spring = _get(cp, "lagrangian", "spring", str, default="quadratic")
    lam = _get(cp, "lagrangian", "lambda", float, default=0.0, lo=-32.0, hi=32.0)
    amp = {
        k: _get(cp, "lagrangian", k, float, default=0.0, lo=0.0, hi=1e4)
        for k in ("k", "k1", "k2", "a0", "a1")
    }
    pos = {
        k: _get(cp, "environment", k, float, default=0.0) for k in ("offset", "phase", "w1", "w2")
    }
    for k, v in pos.items():
        if not math.isfinite(v):
            raise ConfigError(f"[environment] {k} = {v} must be finite")
    alpha = _get(cp, "environment", "alpha", AlphaValue.parse) if variant == "quasicrystal" else None
    n = math.floor(pos["offset"])
    if alpha is not None and not alpha.fits_int64(n - _OFFSET_REACH, n + _OFFSET_REACH):
        raise ConfigError(
            f"[environment] offset = {pos['offset']} is too far out for exact int64 Beatty arithmetic"
        )
    try:
        if variant == "circle":
            env, model = EnvPoint.circle(pos["phase"]), circle_model(amp["k"], lam, spring)
        elif variant == "torus":
            env = EnvPoint.torus(pos["w1"], pos["w2"])
            model = torus_model(amp["k1"], amp["k2"], lam, spring)
        else:
            env = EnvPoint.quasicrystal(alpha, pos["offset"])
            model = sturm_model(alpha, amp["a0"], amp["a1"], lam, spring)
    except ValueError as exc:
        # a catalog DomainError (unknown spring, quartic spring off the circle
        # and torus)
        raise ConfigError(str(exc)) from exc
    n_list_raw = _get(cp, "grid", "n_list", str, default="4,8,16,32")
    try:
        n_list = [int(s) for s in n_list_raw.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad n_list {n_list_raw!r}") from exc
    increasing = all(a < b for a, b in zip(n_list, n_list[1:]))
    if len(n_list) < 2 or not increasing or n_list[0] < 1 or n_list[-1] > 64:
        raise ConfigError("[grid] n_list must hold at least two increasing lengths in 1..64")
    r_max = None  # unset: the solvers' default jump cap |lambda| + 3
    if cp.has_option("grid", "r_max"):
        r_max = _get(cp, "grid", "r_max", float, hi=64.0)
        if not r_max > 0:
            raise ConfigError(f"[grid] r_max = {r_max} must be positive")
    grid = chain_opt.GridSpec(
        h=_get(cp, "grid", "h", float, default=0.05, lo=1e-4, hi=1.0),
        X=_get(cp, "grid", "x", float, default=2.0, lo=0.1, hi=100.0),
        N_outer=_get(cp, "grid", "n_outer", int, default=64, lo=4, hi=4096),
        W=_get(cp, "grid", "w", int, default=8, lo=1, hi=64),
        R_max=r_max,
    )
    return RunConfig(
        model=model,
        env=env,
        seeds=_get(cp, "environment", "seeds", int, default=3, lo=1, hi=64),
        grid=grid,
        n_list=n_list,
        lp_N=_get(cp, "lp", "n", int, default=32, lo=8, hi=512),
        lp_T_max=_get(cp, "lp", "t_max", float, default=2.0, lo=0.1, hi=64.0),
        out_dir=_get(cp, "output", "directory", str, default="out"),
        config_hash=sha256(raw).hexdigest()[:16],
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


def _summary_text(command: str, config_hash: str, seed: int, results) -> str:
    """The summary file's JSON; a non-finite result raises NumericalFailure."""
    payload = {
        "command": command,
        "config_hash": config_hash,
        "seed": seed,
        "results": results,
        "warnings": [],
    }
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalFailure(f"{command} produced a non-finite result ({exc})") from exc


def write_summary(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# -- commands ----------------------------------------------------------------------
# Each command maps (cfg, seed) to ({csv name: (header, rows)}, summary name,
# results); main writes the files.


def cmd_ground_energy(cfg: RunConfig, seed: int):
    est = chain_opt.ground_energy(cfg.model, cfg.env, cfg.n_list, cfg.grid)
    rot = mane.rotation_number(cfg.model, est)
    rows = [(n, m, m / n) for n, m in zip(est.n_list, est.m_values)]
    results = {
        "lower_bound": est.lower_bound,
        "extrapolated": est.extrapolated,
        "inf_diag": rot.inf_diag,
        "rotations": [r for _, r in rot.values],
        "degenerate": rot.degenerate,
        "h": cfg.grid.h,
    }
    csvs = {"ground_energy.csv": (["n", "m_n", "m_n_over_n"], rows)}
    return csvs, "ground_energy_summary.json", results


def cmd_mane(cfg: RunConfig, seed: int):
    model, env, X, h = cfg.model, cfg.env, cfg.grid.X, cfg.grid.h
    est = chain_opt.ground_energy(model, env, cfg.n_list, cfg.grid)
    ebar_x = est.extrapolated  # a fit on every read
    table = mane.mane_table(model, env, est.lower_bound, X, h)
    results = {
        "ebar_lower_bound": est.lower_bound,
        "ebar_extrapolated": ebar_x,
        "cocycle_defects": mane.cocycle_defects(model, table, samples=12, seed=seed),
        "grid_sensitivity": mane.grid_sensitivity(model, table),
        # sensitivity to the Ebar choice: Phi again at the extrapolated value
        "phi_shift_between_ebar_choices": mane.phi_shift(model, table, ebar_x),
    }
    rows = list(zip(table.targets, table.phi, table.n_steps))
    return {"mane_potential.csv": (["t", "phi", "n_steps"], rows)}, "mane_summary.json", results


def cmd_calibrate(cfg: RunConfig, seed: int):
    est = chain_opt.ground_energy(cfg.model, cfg.env, cfg.n_list, cfg.grid)
    report = mane.calibrate_window(cfg.model, cfg.env, est.lower_bound, cfg.grid)
    rows = [(int(m), int(n), d) for m, n, d in report.defects]
    results = {
        "max_defect": report.max_defect,
        "rotation": report.rotation,
        "max_jump": report.max_jump,
        "min_jump": report.min_jump,
        "strictly_monotone": report.strictly_monotone,
        "ebar": report.ebar,
        "window": list(report.window),
    }
    return {"calibration.csv": (["m", "n", "defect"], rows)}, "calibrate_summary.json", results


def cmd_tower(cfg: RunConfig, seed: int):
    if cfg.env.kind != "quasicrystal":
        raise ConfigError("tower command needs a quasicrystal environment")
    alpha = cfg.model.alpha
    window = max(100_000.0, 2000.0 * alpha.max_gap())
    t0 = towers.level0_tower(alpha, window)
    t1, m01 = towers.induce_tower(t0)
    t2, m12 = towers.induce_tower(t1)
    floor_rows = []
    for tw in (t0, t1, t2):
        for i, (lab, hgt) in enumerate(zip(tw.labels, tw.heights)):
            floor_rows.append(
                (tw.level, i, "".join(str(g) for g in lab), hgt, float(tw.nu[i]))
            )
    hom_rows = []
    for lvl, m in ((0, m01), (1, m12)):
        for a in range(m.shape[0]):
            for b in range(m.shape[1]):
                hom_rows.append((lvl, a, b, int(m[a, b])))
    csvs = {
        "tower_floors.csv": (["level", "floor", "label", "height", "nu"], floor_rows),
        "tower_homology.csv": (["lower_level", "row", "col", "count"], hom_rows),
    }
    results = {
        "window": window,
        "residual_01": towers.tower_measure_residual(t0, t1, m01),
        "residual_12": towers.tower_measure_residual(t1, t2, m12),
        "mass_level0": t0.measure_mass(),
        "periodic": alpha.is_rational,
        "floors": [len(t0.labels), len(t1.labels), len(t2.labels)],
    }
    return csvs, "tower_summary.json", results


def cmd_lp(cfg: RunConfig, seed: int):
    if cfg.env.kind != "circle":
        raise ConfigError("lp command needs a circle environment")
    lp = holonomic_lp.discretize_circle(cfg.model, cfg.lp_N, cfg.lp_T_max)
    sol = holonomic_lp.solve(lp)
    weight = 1.0 / sol.nodes.size
    rows = [(j, k, k / lp.N, weight) for j, k in zip(sol.nodes.tolist(), sol.jumps.tolist())]
    results = {
        "N": lp.N,
        "T_max": cfg.lp_T_max,
        "primal": sol.primal,
        "dual": sol.dual,
        "gap": sol.primal - sol.dual,
        "support_size": len(rows),
        "projection": sol.nodes.tolist(),
    }
    return {"lp_support.csv": (["j", "k", "t", "weight"], rows)}, "lp_summary.json", results


def cmd_env_report(cfg: RunConfig, seed: int):
    env, model = cfg.env, cfg.model
    results: Dict[str, object] = {"variant": env.kind}
    if env.kind != "quasicrystal":
        results["sample_energy_origin"] = energy(model, env, 0.0, model.lam)
        results["phase"] = env.phase if env.kind == "circle" else [env.w1, env.w2]
        return {}, "env_report.json", results
    alpha = model.alpha
    N = 100_000
    # the gap table's integers and the count law's 1..N, each tested once: one
    # membership test over their union when the two windows meet
    g_lo, g_hi = env.pset.index_window(0.0, float(N))
    if g_lo <= N + 1 and g_hi >= 0:
        u_lo = min(g_lo, 1)
        member = alpha.membership_range(u_lo, max(g_hi, N))
        in_gaps, in_count = member[g_lo - u_lo : g_hi - u_lo + 1], member[1 - u_lo : N + 1 - u_lo]
    else:
        in_gaps, in_count = alpha.membership_range(g_lo, g_hi), alpha.membership_range(1, N)
    # the count law #{lo..hi} = floor(hi alpha) - floor((lo - 1) alpha) on both
    # windows: the vectorized membership test against the scalar exact floor
    count_law, floor_law = int(np.count_nonzero(in_count)), alpha.floor_mul(N)
    gap_count = int(np.count_nonzero(in_gaps))
    gap_law = alpha.floor_mul(g_hi) - alpha.floor_mul(g_lo - 1)
    if count_law != floor_law or gap_count != gap_law:
        raise NumericalFailure(
            f"count law violated: {count_law} Beatty points in 1..{N}, "
            f"floor(N alpha) = {floor_law}; {gap_count} in {g_lo}..{g_hi}, "
            f"floor({g_hi} alpha) - floor({g_lo - 1} alpha) = {gap_law}"
        )
    # the gaps are a few small positive integers: a bincount finds the letters
    # in ascending order with their counts
    gaps = np.diff(np.flatnonzero(in_gaps))
    hist = np.bincount(gaps)
    letters = np.flatnonzero(hist)
    counts = hist[letters]
    # the set's points in the open ball (-2000, 2000), per unit length
    pts = env.pset.points_in(-2000.0, 2000.0)
    point_frequency = int(np.count_nonzero(np.abs(pts) < 2000.0 - 1e-12)) / 4000.0
    rng = Rng(seed)
    dists = []
    for _ in range(cfg.seeds):
        off = rng.uniform(0.0, 10.0)
        dists.append(hull_distance(env, translate_env(env, off), 16.0))
    results.update(
        {
            "alpha": str(alpha),
            "alpha_value": alpha.value,
            "inv_floor": alpha.inv_floor(),
            "count_in_1_to_N": count_law,
            "floor_N_alpha": floor_law,
            "point_frequency": point_frequency,
            "hull_distance_samples": dists,
        }
    )
    rows = list(zip(letters, counts, counts / gaps.size))
    return {"env_gaps.csv": (["gap", "count", "frequency"], rows)}, "env_report.json", results


_COMMANDS = {
    "ground-energy": cmd_ground_energy,
    "mane": cmd_mane,
    "calibrate": cmd_calibrate,
    "tower": cmd_tower,
    "lp": cmd_lp,
    "env-report": cmd_env_report,
}


_USAGE = f"usage: fklab {{{','.join(_COMMANDS)}}} --config PATH [--out DIR] [--seed U64]"
# --threads is obsolete and ignored: still read so that existing command lines
# keep working
_FLAGS = ("--config", "--out", "--seed", "--threads")


class _Args(NamedTuple):
    command: str
    config: str
    out: Optional[str]
    seed: int


class _UsageError(Exception):
    pass


def _parse_args(argv: List[str]) -> Optional[_Args]:
    """``COMMAND --config PATH [--out DIR] [--seed U64] [--threads N]``, flags in
    any order as ``--flag value`` or ``--flag=value``; None for ``-h``/``--help``.

    A malformed command line raises ``_UsageError``.
    """
    commands, given = [], {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None
        if not arg.startswith("-"):
            if arg not in _COMMANDS:
                raise _UsageError(f"unknown command {arg!r}")
            commands.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        if flag not in _FLAGS:
            raise _UsageError(f"unknown flag {flag!r}")
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise _UsageError(f"{flag} needs a value")
        given[flag] = value
    if len(commands) != 1:
        raise _UsageError(f"expected one command, got {len(commands)}")
    if "--config" not in given:
        raise _UsageError("--config is required")
    ints = {}
    for flag in ("--seed", "--threads"):
        try:
            ints[flag] = int(given.get(flag, 0))
        except ValueError:
            raise _UsageError(f"{flag} needs an integer, got {given[flag]!r}") from None
    return _Args(commands[0], given["--config"], given.get("--out"), ints["--seed"])


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"{_USAGE}\nfklab: error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        print(_USAGE)
        return 0
    # The command's garbage collections skip the objects made before it (the
    # imported modules, numpy's among them): when a collection that walks
    # them falls inside the command, it costs about 2 ms of a 20-40 ms
    # command, and whether one does depends only on how many objects the
    # imports happened to allocate.  They are handed back on return.
    gc.freeze()
    try:
        return _run(args)
    finally:
        gc.unfreeze()


def _run(args: _Args) -> int:
    t0 = time.perf_counter()
    try:
        if not 0 <= args.seed < 1 << 64:
            raise ConfigError(f"--seed must lie in 0..2**64 - 1, got {args.seed}")
        cfg = load_config(args.config)
        csvs, summary, results = _COMMANDS[args.command](cfg, args.seed)
        # the summary is the one output whose serialization can fail, so it is
        # rendered before the output directory is made
        text = _summary_text(args.command, cfg.config_hash, args.seed, results)
        out = Path(args.out if args.out is not None else cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, or a path under one
            msg = f"cannot create output directory {str(out)!r}: {exc.strerror}"
            raise ConfigError(msg) from exc
    except (ConfigError, DomainError, ResourceError) as exc:
        # arguments outside a solver's domain or over a size cap come from the config
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FKError as exc:
        # NumericalFailure, InsufficientDataError: the solver ran and did not succeed
        msg = str(exc)
        best = getattr(exc, "best", None)
        if best is not None:
            msg += f" (best iterate: {best.positions.size} sites, energy {best.energy:.12g})"
        print(f"numerical failure: {msg}", file=sys.stderr)
        return 3
    for name, (header, rows) in csvs.items():
        write_csv(out / name, cfg.config_hash, header, rows)
    write_summary(out / summary, text)
    elapsed = time.perf_counter() - t0
    # wall time goes to the console only; output files stay byte-reproducible
    print(f"{args.command}: ok in {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
