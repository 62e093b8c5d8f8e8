import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fklab import AlphaValue, chain_opt, cli, environments
from fklab._rng import Rng
from fklab.cli import load_config, main, read_csv

GOLDEN = Path(__file__).parent / "golden" / "lp_circle"
GOLDEN_ENV = Path(__file__).parent / "golden" / "env_report_quasicrystal"

CIRCLE_K0 = """
[environment]
variant = circle
phase = 0.0

[lagrangian]
spring = quadratic
lambda = 1.0
k = 0.0

[grid]
h = 0.05
x = 2.5
n_max = 100
n_list = 4,8,16

[lp]
n = 16
t_max = 2.0

[output]
directory = out
"""

CIRCLE_K1 = CIRCLE_K0.replace("k = 0.0", "k = 1.0").replace("lambda = 1.0", "lambda = 0.5")

QC_CONFIG = """
[environment]
variant = quasicrystal
alpha = (-1+1√5)/2
offset = 0.0

[lagrangian]
spring = quadratic
lambda = 1.618
a0 = 0.5
a1 = 1.0

[grid]
h = 0.08
x = 2.0
n_max = 100
n_list = 4,8,16

[output]
directory = out
"""

# the quasicrystal benchmark workload's config at seed 0
QC_WORKLOAD = QC_CONFIG.replace("offset = 0.0", "offset = 0.0\nseeds = 3").replace(
    "n_list = 4,8,16", "n_outer = 64\nw = 8\nn_list = 4,8,16,32"
)

TORUS_CONFIG = """
[environment]
variant = torus
w1 = 0.0
w2 = 0.0

[lagrangian]
spring = quadratic
lambda = 0.0
k1 = 1.0
k2 = 1.0

[grid]
h = 0.05
n_outer = 32
w = 8
n_list = 4,8,16

[output]
directory = out
"""


def run(tmp_path, config_text, command, name="run.ini", seed=0):
    cfg = tmp_path / name
    cfg.write_text(config_text, encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
    return code, out


class TestConfig:
    @pytest.mark.parametrize(
        "section, line",
        [
            ("grid", "wibble = 3"),
            ("grid", "max_sweeps = 0"),
            ("grid", "newton_polish = false"),
            ("output", "formats = json"),
        ],
        ids=["wibble", "max_sweeps", "newton_polish", "output-formats"],
    )
    def test_unknown_key_rejected(self, tmp_path, section, line):
        config = CIRCLE_K0.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        code, _ = run(tmp_path, config, "ground-energy")
        assert code == 2

    def test_unknown_section_rejected(self, tmp_path):
        code, _ = run(tmp_path, CIRCLE_K0 + "\n[banana]\nx = 1\n", "ground-energy")
        assert code == 2

    def test_output_directory_is_the_default_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.ini"
        cfg.write_text(CIRCLE_K1.replace("directory = out", "directory = results"), "utf-8")
        assert main(["ground-energy", "--config", str(cfg)]) == 0
        assert (tmp_path / "results" / "ground_energy.csv").is_file()
        assert not (tmp_path / "out").exists()
        # --out still takes precedence over the configured directory
        assert main(["ground-energy", "--config", str(cfg), "--out", "flag"]) == 0
        assert sorted(p.name for p in (tmp_path / "flag").iterdir()) == [
            "ground_energy.csv",
            "ground_energy_summary.json",
        ]

    def test_table_range_below_grid_step(self, tmp_path):
        # x < h leaves the Mane table only t = 0: refused before any file is written
        config = CIRCLE_K1.replace("h = 0.05", "h = 0.5").replace("x = 2.5", "x = 0.4")
        code, out = run(tmp_path, config, "mane")
        assert code == 2
        assert not out.exists()

    def test_single_chain_length_rejected(self, tmp_path, capsys):
        # one n leaves the 1/n fit of `extrapolated` nothing to fit
        config = CIRCLE_K1.replace("n_list = 4,8,16", "n_list = 32")
        code, out = run(tmp_path, config, "ground-energy")
        assert code == 2
        assert "n_list must hold at least two" in capsys.readouterr().err
        assert not out.exists()

    def test_chain_length_below_one_rejected(self, tmp_path, capsys):
        # every command loads the config, so every one refuses it, lp included
        config = CIRCLE_K1.replace("n_list = 4,8,16", "n_list = 0,8,16")
        for command in ("ground-energy", "mane", "calibrate", "tower", "lp", "env-report"):
            code, out = run(tmp_path, config, command)
            assert code == 2
            assert "[grid] n_list must hold" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_file(self, tmp_path):
        assert main(["ground-energy", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize(
        "old, new",
        [("directory = out", "directory = out%x"), ("lambda = 0.5\n", "lambda = 0.5%\n")],
        ids=["directory", "lambda"],
    )
    def test_percent_in_value_is_config_error(self, tmp_path, capsys, monkeypatch, old, new):
        # a lone '%' fails configparser's interpolation; the run writes nothing
        monkeypatch.chdir(tmp_path)
        code, _ = run(tmp_path, CIRCLE_K1.replace(old, new), "ground-energy")
        assert code == 2
        err = capsys.readouterr().err
        key = "[output] directory" if "directory" in old else "[lagrangian] lambda"
        assert err.startswith("config error: ") and key in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    def test_zero_denominator_slope_is_config_error(self, tmp_path, capsys):
        code, out = run(tmp_path, QC_CONFIG.replace("(-1+1√5)/2", "1/0"), "ground-energy")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "denominator must be nonzero" in err
        assert not out.exists()

    def test_bad_range(self, tmp_path):
        code, _ = run(tmp_path, CIRCLE_K0.replace("h = 0.05", "h = 50"), "ground-energy")
        assert code == 2

    @pytest.mark.parametrize("key, value", [("h", "0.05"), ("lambda", "1.0"), ("t_max", "2.0")])
    def test_nan_is_out_of_range(self, tmp_path, key, value):
        code, _ = run(tmp_path, CIRCLE_K0.replace(f"{key} = {value}", f"{key} = nan"), "lp")
        assert code == 2

    @pytest.mark.parametrize(
        "config, spring, message",
        [
            (QC_CONFIG, "quartic", "quartic spring is only cataloged with circle/torus"),
            (CIRCLE_K0, "banana", "unknown spring 'banana'"),
        ],
        ids=["quartic-on-quasicrystal", "unknown-spring"],
    )
    def test_catalog_rule_is_config_error(self, tmp_path, capsys, config, spring, message):
        # the catalog's DomainError surfaces as a config error from load_config
        config = config.replace("spring = quadratic", f"spring = {spring}")
        code, _ = run(tmp_path, config, "ground-energy")
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-0.5", "0", "nan", "64.5"])
    def test_r_max_must_be_positive(self, tmp_path, value):
        config = CIRCLE_K1.replace("[grid]\n", f"[grid]\nr_max = {value}\n")
        code, _ = run(tmp_path, config, "ground-energy")
        assert code == 2

    def test_r_max_reaches_the_grid(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CIRCLE_K1, encoding="utf-8")
        assert load_config(str(cfg)).grid.R_max is None  # the solvers' |lambda| + 3
        cfg.write_text(CIRCLE_K1.replace("[grid]\n", "[grid]\nr_max = 2.5\n"), "utf-8")
        assert load_config(str(cfg)).grid.R_max == 2.5

    @pytest.mark.parametrize("lam", ["-2.0", "2.0"])
    def test_r_max_below_lambda_solves(self, tmp_path, lam):
        # the shorter chains' windows lie outside the 32-chain's; the ladder's
        # one grid spans them all
        config = CIRCLE_K1.replace("lambda = 0.5", f"lambda = {lam}")
        config = config.replace("n_list = 4,8,16\n", "n_list = 4,8,16,32\nr_max = 1.0\n")
        code, out = run(tmp_path, config, "ground-energy")
        assert code == 0
        rows = (out / "ground_energy.csv").read_text("utf-8").splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["4", "8", "16", "32"]

    @pytest.mark.parametrize("value", ["inf", "nan", "1e12", "1e300", "-1e300"])
    def test_unrepresentable_offset_is_config_error(self, tmp_path, capsys, value):
        # the far offsets put the chain beyond int64 Beatty arithmetic
        config = QC_CONFIG.replace("offset = 0.0", f"offset = {value}")
        code, _ = run(tmp_path, config, "ground-energy")
        assert code == 2
        err = capsys.readouterr().err
        assert "[environment] offset" in err and len(err) < 200

    @pytest.mark.parametrize(
        "config, old, new, command",
        [
            (CIRCLE_K1, "phase = 0.0", "phase = inf", "ground-energy"),
            (CIRCLE_K1, "phase = 0.0", "phase = nan", "env-report"),
            (TORUS_CONFIG, "w1 = 0.0", "w1 = inf", "ground-energy"),
        ],
        ids=["circle-phase-inf", "circle-phase-nan", "torus-w1-inf"],
    )
    def test_nonfinite_position_is_config_error(self, tmp_path, capsys, config, old, new, command):
        code, _ = run(tmp_path, config.replace(old, new), command)
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, old, new, command",
        [
            (TORUS_CONFIG, "n_outer = 32", "n_outer = 16", "calibrate"),
        ],
        ids=["calibrate-n_outer-below-4w"],
    )
    def test_solver_domain_error_is_config_error(self, tmp_path, config, old, new, command):
        code, _ = run(tmp_path, config.replace(old, new), command)
        assert code == 2

    def test_mane_node_cap_is_config_error(self, tmp_path):
        # 10 001 nodes per side: refused before the cost matrix is allocated
        config = CIRCLE_K1.replace("x = 2.5", "x = 100").replace("h = 0.05", "h = 0.01")
        t0 = time.perf_counter()
        code, _ = run(tmp_path, config, "mane")
        assert code == 2
        assert time.perf_counter() - t0 < 1.0


    @pytest.mark.parametrize(
        "old, new, command",
        [
            ("n_list = 4,8,16", "n_list = 4,8,16\nn_outer = 4096", "calibrate"),
            ("h = 0.05", "h = 1e-4", "ground-energy"),
        ],
        ids=["calibrate-n_outer-4096", "ground-energy-h-1e-4"],
    )
    def test_chain_dp_cap_is_config_error(self, tmp_path, capsys, old, new, command):
        # 8e10 and 3.5e11 cells: refused before the cost-to-go table is allocated
        t0 = time.perf_counter()
        code, _ = run(tmp_path, CIRCLE_K1.replace(old, new), command)
        assert code == 2
        assert time.perf_counter() - t0 < 1.0
        assert "chain DP of " in capsys.readouterr().err


    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", ["lp", "ground-energy"])
    def test_seed_out_of_range_is_config_error(self, tmp_path, capsys, command, seed):
        code, out = run(tmp_path, CIRCLE_K1, command, seed=seed)
        assert code == 2
        assert "config error: --seed must lie in 0..2**64 - 1" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_is_accepted(self, tmp_path):
        assert run(tmp_path, CIRCLE_K1, "lp", seed=2**64 - 1)[0] == 0

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["existing-file", "path-under-a-file"])
    def test_unusable_out_is_config_error(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("keep", encoding="utf-8")
        cfg = tmp_path / "run.ini"
        cfg.write_text(CIRCLE_K1, encoding="utf-8")
        code = main(["lp", "--config", str(cfg), "--out", str(taken.joinpath(*below))])
        assert code == 2
        assert "config error: cannot create output directory" in capsys.readouterr().err
        assert taken.read_text(encoding="utf-8") == "keep"


class TestCommandLine:
    @pytest.fixture
    def cfg(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(CIRCLE_K1, encoding="utf-8")
        return str(path)

    def test_flag_forms_and_order(self, tmp_path, cfg):
        # --flag value or --flag=value, in any order around the command; the
        # obsolete --threads is read and changes nothing
        forms = [
            ["lp", "--config", cfg, "--out", "{out}", "--seed", "7"],
            ["--out={out}", f"--config={cfg}", "--seed=7", "lp"],
            ["--seed", "7", "--threads", "4", "lp", "--config", cfg, "--out", "{out}"],
            ["--threads=1", "lp", "--seed=7", f"--config={cfg}", "--out={out}"],
        ]
        written = []
        for i, form in enumerate(forms):
            out = tmp_path / f"out{i}"
            assert main([a.replace("{out}", str(out)) for a in form]) == 0, form
            assert json.loads((out / "lp_summary.json").read_text())["seed"] == 7
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert all(w == written[0] for w in written)

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["lp", "--config", "x.ini", "--help"]])
    def test_help(self, capsys, argv):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: fklab ") and out.count("\n") == 1 and err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["lp", "--out", "{out}"],
            ["lp", "--config", "{cfg}", "--out", "{out}", "--verbose"],
            ["lp", "--conf", "{cfg}", "--out", "{out}"],
            ["lp", "-c", "{cfg}", "--out", "{out}"],
            ["lp", "--out", "{out}", "--config"],
            ["lp", "--config", "--out", "{out}"],
            ["lp", "mane", "--config", "{cfg}", "--out", "{out}"],
            ["banana", "--config", "{cfg}", "--out", "{out}"],
            ["--config", "{cfg}", "--out", "{out}"],
            ["lp", "--config", "{cfg}", "--out", "{out}", "--seed", "1.5"],
            ["lp", "--config", "{cfg}", "--out", "{out}", "--threads", "two"],
        ],
        ids=[
            "no-config",
            "unknown-flag",
            "abbreviation",
            "short-flag",
            "no-value-at-end",
            "flag-as-value",
            "two-commands",
            "unknown-command",
            "no-command",
            "non-integer-seed",
            "non-integer-threads",
        ],
    )
    def test_malformed_is_usage_error(self, tmp_path, capsys, cfg, argv):
        out = tmp_path / "out"
        argv = [a.replace("{cfg}", cfg).replace("{out}", str(out)) for a in argv]
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("usage: fklab ") and "\nfklab: error: " in err
        assert not out.exists()


class TestSampledDraws:
    def test_commands_import_no_numpy_submodule(self, tmp_path):
        # the seeded checks draw from fklab._rng and the plain uniques go
        # through environments._unique; in a fresh command process
        # numpy.random costs about 9 ms to import and numpy.ma about 18 ms.
        # The records are NamedTuples, not dataclasses (about 0.9 ms each to
        # build), and the config hash takes the built-in SHA-256 where the
        # build has one, so neither dataclasses nor OpenSSL's _hashlib loads.
        # The command line is read without argparse (which loads gettext,
        # and locale on its first message), and fractions (with decimal)
        # loads only for a quasicrystal offset.  A command then loads no
        # module at all once its config is loaded, as fkbench's child does.
        runs = [
            (CIRCLE_K1, "circle.ini", ("ground-energy", "mane", "calibrate", "lp")),
            (QC_CONFIG, "qc.ini", ("ground-energy", "mane", "calibrate", "tower", "env-report")),
        ]
        code = [
            "import sys, fklab",
            "import importlib.util",
            "builtin_sha = any(importlib.util.find_spec(m) for m in ('_sha2', '_sha256'))",
            "def light(where):",
            "    for m in ('numpy.random', 'numpy.ma', 'dataclasses'):",
            "        assert m not in sys.modules, f'{m}: {where}'",
            "    assert not builtin_sha or '_hashlib' not in sys.modules, where",
            "light('import fklab')",
            "from fklab.cli import load_config, main",
        ]
        for text, name, commands in runs:
            cfg = tmp_path / name
            cfg.write_text(text, encoding="utf-8")
            code.append(f"load_config({str(cfg)!r})")
            if name == "circle.ini":
                code += [
                    "heavy = {'argparse', 'gettext', 'locale', 'fractions', 'decimal'}",
                    "heavy &= set(sys.modules)",
                    "assert not heavy, 'circle load_config: ' + ' '.join(sorted(heavy))",
                ]
            for c in commands:
                args = [c, "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "5"]
                code += [
                    "before = set(sys.modules)",
                    f"assert main({args!r}) == 0, {c!r}",
                    "new = set(sys.modules) - before",
                    "assert not new, " + repr(f"{c} {name}: ") + " + ' '.join(sorted(new))",
                ]
        code.append("light('every command')")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", "\n".join(code)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_only_the_sampled_outputs_draw(self, tmp_path, monkeypatch):
        # the spy sits on Rng itself, so a draw from any module is seen:
        # calibrate and ground-energy write no sampled value and make none,
        # mane draws its cocycle pairs and env-report its hull offsets
        made = []
        init = Rng.__init__

        def spy(self, seed):
            made.append(seed)
            init(self, seed)

        monkeypatch.setattr(Rng, "__init__", spy)
        for config, command, want in (
            (CIRCLE_K1, "calibrate", []),
            (CIRCLE_K1, "ground-energy", []),
            (CIRCLE_K1, "mane", [5]),
            (QC_CONFIG, "env-report", [5]),
        ):
            made.clear()
            assert run(tmp_path, config, command, seed=5)[0] == 0
            assert made == want, command


class TestGroundEnergyCommand:
    def test_zero_potential_rows(self, tmp_path):
        code, out = run(tmp_path, CIRCLE_K0, "ground-energy")
        assert code == 0
        data = read_csv(out / "ground_energy.csv")
        assert data["header"] == ["n", "m_n", "m_n_over_n"]
        assert abs(data["rows"][-1][2]) <= 1e-8
        summary = json.loads((out / "ground_energy_summary.json").read_text())
        assert abs(summary["results"]["extrapolated"]) <= 1e-8
        # W(0) = lambda^2 / 2, and every free minimizer drifts at lambda = 1
        assert summary["results"]["inf_diag"] == 0.5
        assert summary["results"]["rotations"] == pytest.approx([1.0] * 3, abs=1e-8)
        assert summary["results"]["degenerate"] is False

    @pytest.mark.parametrize("config", [CIRCLE_K1, QC_CONFIG], ids=["circle", "quasicrystal"])
    def test_output_does_not_depend_on_the_seed(self, tmp_path, config):
        # ground-energy draws nothing: the extreme seeds give the same files,
        # apart from the seed stamped into the summary
        files = {}
        for seed in (0, 2**64 - 1):
            _, out = run(tmp_path, config, "ground-energy", seed=seed)
            text = (out / "ground_energy_summary.json").read_text(encoding="utf-8")
            assert f'"seed": {seed},' in text
            files[seed] = (
                (out / "ground_energy.csv").read_bytes(),
                text.replace(f'"seed": {seed},', '"seed": 0,').encode("utf-8"),
            )
        assert files[0] == files[2**64 - 1]

    def test_rerun_byte_identical(self, tmp_path):
        _, out = run(tmp_path, CIRCLE_K1, "ground-energy")
        first = (out / "ground_energy.csv").read_bytes()
        first_json = (out / "ground_energy_summary.json").read_bytes()
        _, out = run(tmp_path, CIRCLE_K1, "ground-energy")
        assert (out / "ground_energy.csv").read_bytes() == first
        assert (out / "ground_energy_summary.json").read_bytes() == first_json

    def test_h_refinement_stability(self, tmp_path):
        _, out = run(tmp_path, CIRCLE_K1, "ground-energy")
        e1 = json.loads((out / "ground_energy_summary.json").read_text())["results"][
            "extrapolated"
        ]
        half = CIRCLE_K1.replace("h = 0.05", "h = 0.025")
        _, out = run(tmp_path, half, "ground-energy", name="half.ini")
        e2 = json.loads((out / "ground_energy_summary.json").read_text())["results"][
            "extrapolated"
        ]
        assert abs(e1 - e2) <= 2e-3

    def test_threads_flag_same_output(self, tmp_path):
        # --threads is obsolete: still accepted, and it changes nothing
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(CIRCLE_K1, encoding="utf-8")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["ground-energy", "--config", str(cfg), "--out", str(out1)]) == 0
        assert (
            main(
                ["ground-energy", "--config", str(cfg), "--out", str(out2), "--threads", "4"]
            )
            == 0
        )
        assert (out1 / "ground_energy.csv").read_bytes() == (
            out2 / "ground_energy.csv"
        ).read_bytes()


class TestManeCommand:
    def test_zero_potential_rows(self, tmp_path):
        code, out = run(tmp_path, CIRCLE_K0, "mane")
        assert code == 0
        data = read_csv(out / "mane_potential.csv")
        rows = {round(r[0], 9): r for r in data["rows"]}
        assert abs(rows[2.0][1]) <= 1e-9
        assert rows[2.0][2] == 2
        assert rows[0.5][1] == pytest.approx(0.125, abs=1e-6)
        # one-step bound row-wise: phi(t) <= L(w, t) - Ebar
        for t, phi, _ in data["rows"]:
            assert phi <= 0.5 * (t - 1.0) ** 2 + 1e-9

    def test_n_max_key_is_obsolete(self, tmp_path):
        # chains of about 5 steps are optimal here; the DP searches any length,
        # so the [grid] n_max key changes nothing and no warning is given
        rows, warnings = [], []
        for n_max in ("100", "2"):
            config = CIRCLE_K1.replace("n_max = 100", f"n_max = {n_max}")
            code, out = run(tmp_path, config, "mane", name=f"n_max{n_max}.ini")
            assert code == 0
            rows.append((out / "mane_potential.csv").read_text().split("\n", 1)[1])
            warnings.append(json.loads((out / "mane_summary.json").read_text())["warnings"])
        assert rows[0] == rows[1]
        assert max(r[2] for r in read_csv(out / "mane_potential.csv")["rows"]) > 2
        assert warnings == [[], []]

    def test_round_trip_lossless(self, tmp_path):
        code, out = run(tmp_path, CIRCLE_K1, "mane")
        assert code == 0
        path = out / "mane_potential.csv"
        data = read_csv(path)
        # rewriting the parsed rows reproduces the file byte for byte
        from fklab.cli import write_csv

        write_csv(path, data["config_hash"], data["header"], data["rows"])
        again = read_csv(path)
        assert again["rows"] == data["rows"]


class TestOtherCommands:
    def test_lp_zero_potential(self, tmp_path):
        code, out = run(tmp_path, CIRCLE_K0, "lp")
        assert code == 0
        summary = json.loads((out / "lp_summary.json").read_text())
        assert abs(summary["results"]["primal"]) <= 1e-9
        assert abs(summary["results"]["dual"]) <= 1e-9

    def test_tower_fibonacci(self, tmp_path):
        code, out = run(tmp_path, QC_CONFIG, "tower")
        assert code == 0
        summary = json.loads((out / "tower_summary.json").read_text())
        assert summary["results"]["residual_01"] <= 1e-3
        assert summary["results"]["residual_12"] <= 1e-3
        assert summary["results"]["periodic"] is False
        floors = read_csv(out / "tower_floors.csv")
        assert floors["header"] == ["level", "floor", "label", "height", "nu"]

    def test_tower_rational_slope_is_periodic(self, tmp_path):
        code, out = run(tmp_path, QC_CONFIG.replace("(-1+1√5)/2", "1/2"), "tower")
        assert code == 0
        results = json.loads((out / "tower_summary.json").read_text())["results"]
        assert results["periodic"] is True
        assert results["floors"] == [1, 1, 1]

    def test_tower_needs_quasicrystal(self, tmp_path):
        code, _ = run(tmp_path, CIRCLE_K0, "tower")
        assert code == 2

    def test_command_runs_with_the_older_heap_frozen(self, tmp_path, monkeypatch):
        # the command's collections skip the objects made before it, and main
        # hands them back to the collector on every return
        frozen = []
        real = cli.cmd_lp

        def spy(cfg, seed):
            frozen.append(gc.get_freeze_count())
            return real(cfg, seed)

        monkeypatch.setitem(cli._COMMANDS, "lp", spy)
        assert gc.get_freeze_count() == 0
        assert run(tmp_path, CIRCLE_K1, "lp")[0] == 0
        assert frozen[0] > 0 and gc.get_freeze_count() == 0
        assert run(tmp_path, QC_CONFIG, "lp")[0] == 2
        assert gc.get_freeze_count() == 0

    def test_failed_command_leaves_no_out_directory(self, tmp_path, capsys):
        # the circle workload's config: tower fails after the config loaded
        code, out = run(tmp_path, (GOLDEN / "circle.ini").read_text(), "tower")
        assert code == 2
        assert "tower command needs a quasicrystal environment" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config", [QC_CONFIG, TORUS_CONFIG], ids=["quasicrystal", "torus"])
    def test_lp_needs_circle(self, tmp_path, config):
        # a variant mismatch is a config error (2), not a numerical failure (3)
        code, _ = run(tmp_path, config, "lp")
        assert code == 2

    @pytest.mark.parametrize(
        "old, new",
        [
            ("t_max = 2.0", "t_max = 1.0"),
            ("lambda = 0.5\n", "lambda = -1.5\n"),
            ("n = 16\nt_max = 2.0", "n = 512\nt_max = 8.0"),
        ],
        ids=["t_max-below-lambda-plus-1", "t_max-below-abs-lambda-plus-1", "arcs-over-cap"],
    )
    def test_lp_bad_size_is_config_error(self, tmp_path, old, new):
        code, _ = run(tmp_path, CIRCLE_K1.replace(old, new), "lp")
        assert code == 2

    def test_calibrate_torus(self, tmp_path):
        code, out = run(tmp_path, TORUS_CONFIG, "calibrate")
        assert code == 0
        summary = json.loads((out / "calibrate_summary.json").read_text())
        assert summary["results"]["max_defect"] <= 1e-6

    @pytest.mark.parametrize("workload", ["circle", "quasicrystal"])
    def test_calibrate_never_fits(self, tmp_path, monkeypatch, workload):
        # calibrate reads only the lower estimate, so the 1/n fit never runs
        text = (GOLDEN / "circle.ini").read_text() if workload == "circle" else QC_WORKLOAD
        (tmp_path / "run.ini").write_text(text)
        cfg = load_config(str(tmp_path / "run.ini"))

        def no_fit(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", no_fit)
        cli.cmd_calibrate(cfg, 0)
        est = chain_opt.ground_energy(cfg.model, cfg.env, cfg.n_list, cfg.grid)
        with pytest.raises(AssertionError, match="lstsq called"):
            est.extrapolated

    def test_beatty_windows_read_the_block_memo(self, tmp_path, monkeypatch):
        # from a cold memo, every membership test is a block fill, or a window
        # too wide for the memo that is materialized once
        (tmp_path / "run.ini").write_text(QC_WORKLOAD)
        cfg = load_config(str(tmp_path / "run.ini"))
        windows = []
        membership_range = AlphaValue.membership_range

        def spy(alpha, lo, hi):
            windows.append((lo, hi))
            return membership_range(alpha, lo, hi)

        monkeypatch.setattr(AlphaValue, "membership_range", spy)
        B = environments._BLOCK
        for cmd in (cli.cmd_calibrate, cli.cmd_env_report):
            environments._block.cache_clear()
            windows.clear()
            cmd(cfg, 0)
            assert windows
            for lo, hi in windows:
                block_fill = lo % B == 0 and hi - lo + 1 == B
                assert block_fill or hi // B - lo // B + 1 > environments._MAX_BLOCKS, (lo, hi)
        environments._block.cache_clear()

    def test_env_report_quasicrystal(self, tmp_path):
        code, out = run(tmp_path, QC_CONFIG, "env-report")
        assert code == 0
        summary = json.loads((out / "env_report.json").read_text())
        res = summary["results"]
        assert res["count_in_1_to_N"] == res["floor_N_alpha"]
        assert abs(res["alpha_value"] - (math.sqrt(5) - 1) / 2) < 1e-15

    @pytest.mark.parametrize("offset", ["0.0", "3.5625", "-7.25", "250000.5", "5e8"])
    def test_env_report_gap_table(self, tmp_path, offset):
        # the last two offsets put the gap window clear of 1..N, the last one
        # near the int64 reach of the golden slope
        code, out = run(tmp_path, QC_CONFIG.replace("offset = 0.0", f"offset = {offset}"), "env-report")
        assert code == 0
        env = load_config(tmp_path / "run.ini").env
        gaps = np.rint(np.diff(env.pset.points_in(0.0, 100_000.0))).astype(int)
        letters, counts = np.unique(gaps, return_counts=True)
        rows = read_csv(out / "env_gaps.csv")["rows"]
        assert [(int(r[0]), int(r[1])) for r in rows] == list(zip(letters, counts))

    def test_env_report_certifies_count_law(self, tmp_path, monkeypatch):
        exact_range = AlphaValue.membership_range

        def one_flipped(self, lo, hi):
            mask = exact_range(self, lo, hi)
            mask[0] = not mask[0]
            return mask

        monkeypatch.setattr(AlphaValue, "membership_range", one_flipped)
        code, _ = run(tmp_path, QC_CONFIG, "env-report")
        assert code == 3

    def test_env_report_golden_outputs(self, tmp_path):
        # the quasicrystal benchmark workload's config (QC_WORKLOAD) at seed 0;
        # the expected bytes were written when the point frequency still came
        # from the return times of the section "a set point sits at the origin"
        out = tmp_path / "out"
        cfg = GOLDEN_ENV / "quasicrystal.ini"
        assert cfg.read_text(encoding="utf-8") == QC_WORKLOAD.lstrip("\n")
        assert main(["env-report", "--config", str(cfg), "--out", str(out), "--seed", "0"]) == 0
        for name in ("env_gaps.csv", "env_report.json"):
            assert (out / name).read_bytes() == (GOLDEN_ENV / name).read_bytes()

    @pytest.mark.parametrize(
        "alpha, slack", [("1/2", 1.0), ("(-1+1√5)/2", 2.0)], ids=["half", "golden"]
    )
    def test_env_report_point_frequency_density(self, tmp_path, alpha, slack):
        config = QC_CONFIG.replace("alpha = (-1+1√5)/2", f"alpha = {alpha}")
        code, out = run(tmp_path, config, "env-report")
        assert code == 0
        res = json.loads((out / "env_report.json").read_text())["results"]
        assert abs(res["point_frequency"] - AlphaValue.parse(alpha).value) <= slack / 2000.0

    @pytest.mark.parametrize("offset", ["2939.0000000001", "-610.9999999999"])
    def test_point_frequency_counts_points_at_the_edge(self, tmp_path, offset):
        # a set point lies 1e-10 inside the open ball (-2000, 2000); the count
        # law over the ball's integers n, |n - offset| < 2000, counts it
        config = QC_CONFIG.replace("offset = 0.0", f"offset = {offset}")
        code, out = run(tmp_path, config, "env-report")
        assert code == 0
        res = json.loads((out / "env_report.json").read_text())["results"]
        off = Fraction(float(offset))
        n_lo, n_hi = math.floor(off - 2000) + 1, math.ceil(off + 2000) - 1
        golden = AlphaValue.parse("(-1+1√5)/2")
        law = golden.floor_mul(n_hi) - golden.floor_mul(n_lo - 1)
        assert res["point_frequency"] == law / 4000 == 0.618

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(chain_opt, "MAX_ITER", 0)
        code, _ = run(tmp_path, CIRCLE_K1, "ground-energy")
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "best iterate: 5 sites, energy " in err

    def test_refinement_stall_is_named(self, tmp_path, capsys):
        # the n = 32 solve stalls after 2 Newton steps: every trial energy of the
        # third step lies 3e-15 to 8e-15 above the current one, beyond the 1e-15
        # a Newton step may add, while max|g| is still above the 1e-8 fallback
        config = TORUS_CONFIG
        for old, new in [("w1 = 0.0", "w1 = 0.37"), ("w2 = 0.0", "w2 = 0.71"),
                         ("lambda = 0.0", "lambda = 0.8"), ("n_list = 4,8,16", "n_list = 4,8,16,32")]:
            config = config.replace(old, new)
        code, out = run(tmp_path, config, "ground-energy")
        assert code == 3 and not out.exists()
        err = capsys.readouterr().err
        lead = (
            "numerical failure: refinement did not converge: "
            "the line search stalled after 2 Newton steps at max|g| = "
        )
        assert err.startswith(lead) and "best iterate: 33 sites" in err
        assert float(err[len(lead) :].split()[0]) > 1e-8

    def test_refinement_budget_is_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(chain_opt, "MAX_ITER", 2)
        code, _ = run(tmp_path, CIRCLE_K1, "ground-energy")
        assert code == 3
        err = capsys.readouterr().err
        lead = (
            "numerical failure: refinement did not converge: "
            "its budget of 2 Newton steps ran out at max|g| = "
        )
        assert err.startswith(lead)
        assert float(err[len(lead) :].split()[0]) > 1e-11

    def test_nonfinite_result_writes_no_file(self, tmp_path, monkeypatch, capsys):
        real = cli.cmd_lp

        def nan_primal(cfg, seed):
            csvs, summary, results = real(cfg, seed)
            return csvs, summary, {**results, "primal": math.nan}

        monkeypatch.setitem(cli._COMMANDS, "lp", nan_primal)
        code, out = run(tmp_path, CIRCLE_K1, "lp")
        assert code == 3
        assert "numerical failure: lp produced a non-finite result" in capsys.readouterr().err
        assert not out.exists()

    def test_lp_golden_outputs(self, tmp_path):
        # the circle benchmark workload's config at seed 0 (N = 56); the expected
        # bytes were written by the dense-measure LP solver that Howard's cycle
        # output replaced, and must not move
        out = tmp_path / "out"
        assert main(["lp", "--config", str(GOLDEN / "circle.ini"), "--out", str(out)]) == 0
        for name in ("lp_support.csv", "lp_summary.json"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_lp_is_posed_on_the_hull(self, tmp_path):
        # omega_j = j/N covers every phase, so [environment] phase cannot enter the LP
        results = []
        for phase in ("0.0", "0.25"):
            config = CIRCLE_K1.replace("phase = 0.0", f"phase = {phase}")
            code, out = run(tmp_path, config, "lp", name=f"phase{phase}.ini")
            assert code == 0
            results.append(json.loads((out / "lp_summary.json").read_text())["results"])
        for key in ("primal", "dual", "projection"):
            assert results[0][key] == results[1][key]

    def test_config_hash_on_all_files(self, tmp_path):
        code, out = run(tmp_path, CIRCLE_K1, "lp")
        assert code == 0
        summary = json.loads((out / "lp_summary.json").read_text())
        csv_hash = read_csv(out / "lp_support.csv")["config_hash"]
        assert summary["config_hash"] == csv_hash
        # the built-in SHA-256 gives hashlib's digest
        expect = hashlib.sha256((tmp_path / "run.ini").read_bytes()).hexdigest()[:16]
        assert csv_hash == expect
