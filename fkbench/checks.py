"""Output checks for each CLI command.

:func:`certify` checks certificates that hold at every seed, plus the config
hash stamped into every output file.  :func:`reference_values` extracts the
scalars compared against ``reference.json`` at seed 0, with the tolerances
the repository's tests use for the same quantities.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

FILES = {
    "ground-energy": ("ground_energy.csv", "ground_energy_summary.json"),
    "mane": ("mane_potential.csv", "mane_summary.json"),
    "calibrate": ("calibration.csv", "calibrate_summary.json"),
    "tower": ("tower_floors.csv", "tower_homology.csv", "tower_summary.json"),
    "lp": ("lp_support.csv", "lp_summary.json"),
    "env-report": ("env_gaps.csv", "env_report.json"),
}

# absolute tolerance per reference key; 0 means exact
TOLERANCES = {
    "m_n": 1e-8,
    "lower_bound": 1e-8,
    "extrapolated": 1e-8,
    "ebar_lower_bound": 1e-8,
    "phi": 1e-8,
    "max_defect": 1e-8,
    "rotation": 1e-8,
    "floors": 0,
    "residual_01": 1e-9,
    "residual_12": 1e-9,
    "primal": 1e-9,
    "dual": 1e-9,
    "support_size": 0,
    "count_in_1_to_N": 0,
    "point_frequency": 1e-9,
}


def _csv_column(path: Path, column: str) -> list:
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    col = lines[1].split(",").index(column)
    return [float(line.split(",")[col]) for line in lines[2:]]


def _results(out: Path, command: str) -> dict:
    return json.loads((out / FILES[command][-1]).read_text(encoding="utf-8"))["results"]


def certify(command: str, out: Path, config_hash: str) -> list:
    """Failure messages for one command's outputs; empty when all checks pass."""
    fails = []
    for name in FILES[command]:
        path = out / name
        if not path.is_file():
            fails.append(f"{name} missing")
        elif name.endswith(".csv"):
            head = path.read_text(encoding="utf-8").split("\n", 1)[0]
            if head != f"# config_hash={config_hash}":
                fails.append(f"{name}: config hash header {head!r}")
        elif json.loads(path.read_text(encoding="utf-8"))["config_hash"] != config_hash:
            fails.append(f"{name}: config hash mismatch")
    if fails:
        return fails
    res = _results(out, command)
    if command == "ground-energy":
        if not res["lower_bound"] <= res["extrapolated"]:
            fails.append(f"lower_bound {res['lower_bound']} > extrapolated {res['extrapolated']}")
    elif command == "mane":
        for key in ("one_step_max", "lower_bound_max"):
            if not res["cocycle_defects"][key] <= 1e-9:
                fails.append(f"{key} = {res['cocycle_defects'][key]} > 1e-9")
    elif command == "calibrate":
        worst = min(_csv_column(out / "calibration.csv", "defect"))
        if not worst >= -1e-9:
            fails.append(f"calibration defect {worst} < -1e-9")
    elif command == "tower":
        for key in ("residual_01", "residual_12"):
            if not res[key] <= 1e-3:
                fails.append(f"{key} = {res[key]} > 1e-3")
    elif command == "lp":
        if not abs(res["primal"] - res["dual"]) <= 1e-9:
            fails.append(f"|primal - dual| = {abs(res['primal'] - res['dual'])} > 1e-9")
    elif command == "env-report":
        if res["count_in_1_to_N"] != res["floor_N_alpha"]:
            fails.append(f"count {res['count_in_1_to_N']} != floor(N alpha) {res['floor_N_alpha']}")
    return fails


def reference_values(command: str, out: Path) -> dict:
    """The scalars (or lists of scalars) compared against the seed-0 reference."""
    res = _results(out, command)
    if command == "ground-energy":
        return {
            "m_n": _csv_column(out / "ground_energy.csv", "m_n"),
            "lower_bound": res["lower_bound"],
            "extrapolated": res["extrapolated"],
        }
    if command == "mane":
        return {
            "ebar_lower_bound": res["ebar_lower_bound"],
            "phi": _csv_column(out / "mane_potential.csv", "phi"),
        }
    if command == "calibrate":
        return {"max_defect": res["max_defect"], "rotation": res["rotation"]}
    if command == "tower":
        return {k: res[k] for k in ("floors", "residual_01", "residual_12")}
    if command == "lp":
        return {k: res[k] for k in ("primal", "dual", "support_size")}
    return {k: res[k] for k in ("count_in_1_to_N", "point_frequency")}


def compare(got: dict, want: dict) -> list:
    """Failure messages where got differs from want beyond the key's tolerance."""
    fails = []
    for key, ref in want.items():
        val = got.get(key)
        refs = ref if isinstance(ref, list) else [ref]
        vals = val if isinstance(val, list) else [val]
        if val is None or len(vals) != len(refs):
            fails.append(f"{key}: got {val!r}, reference {ref!r}")
            continue
        tol = TOLERANCES[key]
        worst = max(abs(v - r) for v, r in zip(vals, refs))
        if not (worst <= tol and all(map(math.isfinite, vals))):
            fails.append(f"{key}: off the reference by {worst:.3g} (tolerance {tol:g})")
    return fails
