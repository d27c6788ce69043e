"""Exit-code contract and output layout of the command line runner."""

import json

import numpy as np
import pytest

from conftest import bundled_config

from fracred.cli import EXIT_CONFIG, EXIT_CONTRACT, EXIT_IO, EXIT_OK, main
from fracred.config import ConfigError, load_config, parse_config
from fracred.runner import run_suites

FULL_RUN_FILES = {
    "assemble.json",
    "calibration.csv",
    "calibration.json",
    "cauchy_gap.json",
    "diagnostics.json",
    "direct.json",
    "gauge_check.json",
    "manifest.json",
    "svals.csv",
}

#: override values: the old hand-checked cases, values a JSON config may
#: hold under another key, and one valid value for each override
OVERRIDE_VALUES = [
    "", [], [""], ["reduce", ""], ["", "calibrate"], ["frobnicate"], ["reduce", "reduce"],
    -1, 1.5, True, "3", 42.0, ["calibrate"], 7, "o",
]


def write_config(tmp_path, mutate=None, name="case.json"):
    with open(bundled_config("baseline-1d.json")) as fh:
        raw = json.load(fh)
    if mutate:
        mutate(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestListSuites:
    def test_names_present(self, capsys):
        assert main(["list-suites"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gauge" in out
        assert "reduce" in out

    def test_ordering_is_stable(self, capsys):
        main(["list-suites"])
        first = capsys.readouterr().out
        main(["list-suites"])
        second = capsys.readouterr().out
        assert first == second
        order = [first.index(s) for s in ("calibrate", "assemble", "direct", "reduce", "gauge", "diagnostics")]
        assert order == sorted(order)


class TestRunContract:
    def test_bundled_baseline_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "baseline-1d", "--out", str(out)]) == EXIT_OK
        assert {p.name for p in out.iterdir()} == FULL_RUN_FILES
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["ok"] is True
        assert manifest["failures"] == []
        assert manifest["suites_run"] == [
            "calibrate", "assemble", "direct", "reduce", "gauge", "diagnostics",
        ]

    def test_integral_floats_stay_floats(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "baseline-1d", "--suites", "calibrate,assemble", "--out", str(out)]) == EXIT_OK
        (row,) = json.loads((out / "assemble.json").read_text())["operators"]
        calibration = json.loads((out / "calibration.json").read_text())
        assert row["ellipticity_bound"] == 1.0 and type(row["ellipticity_bound"]) is float
        assert calibration["s_max"] == 4.0 and type(calibration["s_max"]) is float
        assert type(calibration["n"]) is int

    def test_overlapping_regions_exit_config(self, tmp_path, capsys):
        def overlap(raw):
            raw["regions"]["w"] = [0.5, 1.8]

        cfg = write_config(tmp_path, overlap)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "omega and W closures touch" in capsys.readouterr().err

    def test_unknown_key_exit_config(self, tmp_path, capsys):
        def unknown(raw):
            raw["solver"] = "fast"

        cfg = write_config(tmp_path, unknown)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "schema violation" in capsys.readouterr().err

    def test_nan_exponent_exit_config(self, tmp_path, capsys):
        def nan(raw):
            raw["a"] = [float("nan")]

        cfg = write_config(tmp_path, nan)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_utf8_config_exit_config(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"out_dir": "r\xe9s"}')
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_window_without_a_free_node_exit_config(self, tmp_path, capsys):
        # W is the top-left corner triangle, all three of its nodes on the
        # box boundary: no datum can live there
        with open(bundled_config("baseline-2d.json")) as fh:
            raw = json.load(fh)
        raw["operators"] = [{}, {"c": 5.0}]
        raw["regions"]["w"] = [[-1.99, -1.9], [1.9, 1.99]]
        cfg = tmp_path / "corner.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "region W has no node off the box boundary" in capsys.readouterr().err
        assert not out.exists()

    def test_omega_element_on_the_box_boundary_exit_config(self, tmp_path, capsys):
        # the omega box lies inside the mesh box, but its first element holds
        # the boundary node -2.0, which carries no dof
        def edge(raw):
            raw["regions"].update(omega=[-1.99, 1.0], wtilde=[1.15, 1.8])

        cfg = write_config(tmp_path, edge)
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "OMEGA element has a node on the box boundary" in capsys.readouterr().err
        assert not out.exists()

    def test_deformation_off_the_omega_interior_exit_config(self, tmp_path, capsys):
        # the ball lies inside the omega box, but moves node 0.95 of the
        # non-OMEGA element [0.95, 1.0]
        def reach(raw):
            raw["regions"]["omega"] = [-1.0, 0.96]
            raw["diffeo"] = {"rho": 0.955, "factor": 0.8}

        cfg = write_config(tmp_path, reach)
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "deformation moves a node outside" in capsys.readouterr().err
        assert not out.exists()

    def test_two_operators_without_a_rigidity_sigma_exit_config(self, tmp_path, capsys):
        # every WTILDE dof lies in the closure of the hat at the first W dof,
        # so the diagnostics rigidity probe has no Sigma
        with open(bundled_config("perturbed-1d.json")) as fh:
            raw = json.load(fh)
        raw["mesh"]["n_cells"] = 28
        raw["regions"] = {"omega": [-1.0, 1.0], "w": [-1.553, -1.249], "wtilde": [-1.581, -1.441]}
        cfg = tmp_path / "no_sigma.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no rigidity Sigma" in err and "WTILDE" in err and "W node" in err
        assert not out.exists()

    def test_missing_config_exit_io(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["run", missing, "--out", str(tmp_path / "o")]) == EXIT_IO
        assert "not found" in capsys.readouterr().err

    def test_positivity_failure_exit_contract(self, tmp_path, capsys):
        def sink(raw):
            raw["operators"] = [{"c": -1.0e6}]

        cfg = write_config(tmp_path, sink)
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_CONTRACT
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["ok"] is False
        kinds = [f["kind"] for f in manifest["failures"]]
        assert "PositivityError" in kinds
        # assembly happens at first use, so calibrate reports the failure
        # and every later suite is skipped
        assert "direct" in manifest["suites_skipped"]
        assert "diagnostics" in manifest["suites_skipped"]
        assert "failure in calibrate" in capsys.readouterr().err


class TestRunOptions:
    def test_suite_subset(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", "baseline-1d", "--out", str(out), "--suites", "calibrate"])
        assert code == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert names == {"calibration.csv", "calibration.json", "manifest.json"}

    def test_unknown_suite_exit_config(self, tmp_path, capsys):
        code = main(
            ["run", "baseline-1d", "--out", str(tmp_path / "o"), "--suites", "frobnicate"]
        )
        assert code == EXIT_CONFIG
        assert "frobnicate" in capsys.readouterr().err

    @pytest.mark.parametrize("suites", ["", "reduce,", ",calibrate", "calibrate,,direct"])
    def test_empty_suite_name_exit_config(self, suites, tmp_path, capsys):
        # an empty --suites once ran every suite, and a trailing comma was
        # reported as an unknown suite with a blank name
        out = tmp_path / "o"
        code = main(["run", "baseline-1d", "--out", str(out), "--suites", suites])
        assert code == EXIT_CONFIG
        index = suites.split(",").index("")
        assert f"schema violation at suites/{index}: '' is not one of" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_suite_name_exit_config(self, tmp_path, capsys):
        # a config's "suites" may not repeat a name either (uniqueItems)
        out = tmp_path / "o"
        code = main(["run", "baseline-1d", "--out", str(out), "--suites", "reduce,reduce"])
        assert code == EXIT_CONFIG
        assert "['reduce', 'reduce'] has non-unique elements" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_out_exit_config(self, tmp_path, capsys, monkeypatch):
        # an empty --out once wrote into the working directory, though a
        # config's "out_dir" needs one character (minLength)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "baseline-1d", "--out", "", "--suites", "calibrate"]) == EXIT_CONFIG
        assert "schema violation at out_dir: '' is shorter than 1 characters" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", OVERRIDE_VALUES, ids=repr)
    @pytest.mark.parametrize("key", ["suites", "seed", "out_dir"])
    def test_override_is_refused_exactly_as_its_config_key(self, key, value, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with open(bundled_config("baseline-1d.json")) as fh:
            raw = {**json.load(fh), "suites": ["calibrate"]}
        cfg = parse_config(raw)
        try:
            parse_config({**raw, key: value})
        except ConfigError as refused:
            with pytest.raises(ConfigError) as info:
                run_suites(cfg, **{key: value})
            assert str(info.value) == str(refused)
            assert not any(tmp_path.iterdir())
        else:
            result = run_suites(cfg, **{key: value})
            manifest = json.loads((result.out_dir / "manifest.json").read_text())
            assert result.ok and manifest["seed"] == (int(value) if key == "seed" else 42)

    def test_negative_seed_exit_config(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "baseline-1d", "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", np.int64(3)])
    def test_run_suites_rejects_a_bad_seed_override(self, seed, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            run_suites(load_config(bundled_config("baseline-1d.json")), out_dir=tmp_path / "o", seed=seed)
        assert not (tmp_path / "o").exists()

    def test_seed_override_recorded_and_deterministic(self, tmp_path, capsys):
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        for out, seed in ((out1, "7"), (out2, "7"), (out3, "8")):
            assert (
                main(["run", "baseline-1d", "--out", str(out), "--seed", seed])
                == EXIT_OK
            )
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["seed"] == 7
        # same seed: byte-identical; different seed: the probe data moves
        assert (out1 / "direct.json").read_bytes() == (out2 / "direct.json").read_bytes()
        assert (out1 / "direct.json").read_bytes() != (out3 / "direct.json").read_bytes()
