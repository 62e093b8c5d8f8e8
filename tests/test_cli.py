import json
import math
from pathlib import Path

import pytest

from fklab.cli import main, read_csv

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
    def test_unknown_key_rejected(self, tmp_path):
        code, _ = run(tmp_path, CIRCLE_K0 + "\nwibble = 3\n", "ground-energy")
        assert code == 2

    def test_unknown_section_rejected(self, tmp_path):
        code, _ = run(tmp_path, CIRCLE_K0 + "\n[banana]\nx = 1\n", "ground-energy")
        assert code == 2

    def test_missing_file(self, tmp_path):
        assert main(["ground-energy", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_bad_range(self, tmp_path):
        code, _ = run(tmp_path, CIRCLE_K0.replace("h = 0.05", "h = 50"), "ground-energy")
        assert code == 2


class TestGroundEnergyCommand:
    def test_zero_potential_rows(self, tmp_path):
        code, out = run(tmp_path, CIRCLE_K0, "ground-energy")
        assert code == 0
        data = read_csv(out / "ground_energy.csv")
        assert data["header"] == ["n", "m_n", "m_n_over_n"]
        assert abs(data["rows"][-1][2]) <= 1e-8
        summary = json.loads((out / "ground_energy_summary.json").read_text())
        assert abs(summary["results"]["extrapolated"]) <= 1e-8

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
        floors = read_csv(out / "tower_floors.csv")
        assert floors["header"] == ["level", "floor", "label", "height", "nu"]

    def test_tower_needs_quasicrystal(self, tmp_path):
        code, _ = run(tmp_path, CIRCLE_K0, "tower")
        assert code == 2

    @pytest.mark.parametrize("config", [QC_CONFIG, TORUS_CONFIG], ids=["quasicrystal", "torus"])
    def test_lp_needs_circle(self, tmp_path, config):
        # a variant mismatch is a config error (2), not a numerical failure (3)
        code, _ = run(tmp_path, config, "lp")
        assert code == 2

    @pytest.mark.parametrize(
        "old, new",
        [("t_max = 2.0", "t_max = 1.0"), ("n = 16\nt_max = 2.0", "n = 512\nt_max = 8.0")],
        ids=["t_max-below-lambda-plus-1", "arcs-over-cap"],
    )
    def test_lp_bad_size_is_config_error(self, tmp_path, old, new):
        code, _ = run(tmp_path, CIRCLE_K1.replace(old, new), "lp")
        assert code == 2

    def test_calibrate_torus(self, tmp_path):
        code, out = run(tmp_path, TORUS_CONFIG, "calibrate")
        assert code == 0
        summary = json.loads((out / "calibrate_summary.json").read_text())
        assert summary["results"]["max_defect"] <= 1e-6

    def test_env_report_quasicrystal(self, tmp_path):
        code, out = run(tmp_path, QC_CONFIG, "env-report")
        assert code == 0
        summary = json.loads((out / "env_report.json").read_text())
        res = summary["results"]
        assert res["count_in_1_to_N"] == res["floor_N_alpha"]
        assert abs(res["alpha_value"] - (math.sqrt(5) - 1) / 2) < 1e-15

    def test_numerical_failure_exit_code(self, tmp_path):
        broken = CIRCLE_K1.replace(
            "[grid]\nh = 0.05", "[grid]\nh = 0.05\nmax_sweeps = 0\nnewton_polish = false"
        )
        code, _ = run(tmp_path, broken, "ground-energy")
        assert code == 3

    def test_config_hash_on_all_files(self, tmp_path):
        code, out = run(tmp_path, CIRCLE_K1, "lp")
        assert code == 0
        summary = json.loads((out / "lp_summary.json").read_text())
        csv_hash = read_csv(out / "lp_support.csv")["config_hash"]
        assert summary["config_hash"] == csv_hash
