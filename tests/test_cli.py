import csv
import dataclasses
import json
import math

import pytest

from clickwitness.cli import COLUMNS, ENV_OUTDIR, main, run
from clickwitness.scenarios import (
    RATIO_CRITERIA,
    OutputSpec,
    Scenario,
    StateInput,
    SweepSpec,
    presets,
    scenario_from_json,
)
from clickwitness.detectors import DetectorConfig
from oracles import write_rows_csv


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestScenarioParsing:
    BASE = {
        "name": "demo",
        "state": {"kind": "cat", "parity": "both"},
        "detector": {"model": "onoff", "bins": 5, "efficiency": 0.5},
        "sets": "all",
        "sweep": {"start": 0.1, "stop": 1.0, "points": 3},
    }

    def test_round_trip(self):
        scenario = scenario_from_json(json.dumps(self.BASE))
        assert scenario.name == "demo"
        assert scenario.detector.bins == 5
        assert scenario.sweep.points == 3

    def test_unknown_top_level_field_rejected(self):
        bad = dict(self.BASE, efficency=0.5)
        with pytest.raises(ValueError, match="efficency"):
            scenario_from_json(json.dumps(bad))

    def test_unknown_nested_field_rejected(self):
        bad = dict(self.BASE, detector={"model": "onoff", "bins": 5, "bngs": 2})
        with pytest.raises(ValueError, match="bngs"):
            scenario_from_json(json.dumps(bad))

    def test_explicit_sets_with_labels(self):
        doc = dict(self.BASE)
        doc["sets"] = [
            {"label": "integer", "elements": [0, 1, 2]},
            {"label": "half", "elements": ["1/2", "3/2"]},
        ]
        scenario = scenario_from_json(json.dumps(doc))
        assert scenario.sets[0][0] == "integer"

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(start=-1.0, stop=1.0, points=5, scale="log")
        with pytest.raises(ValueError):
            SweepSpec(start=0.1, stop=1.0, points=0)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            StateInput("cat")
        with pytest.raises(ValueError):
            StateInput("coherent", parity="even")
        with pytest.raises(ValueError):
            StateInput("fock")


class TestRun:
    def scenario(self, tmp_path, points=4):
        return Scenario(
            name="mini",
            state=StateInput("cat", parity="both"),
            detector=DetectorConfig.onoff(5, 0.5),
            sets="all",
            kinds=("counts",),
            sweep=SweepSpec(start=0.1, stop=2.0, points=points),
        )

    def test_writes_one_file_per_set_and_criterion(self, tmp_path):
        paths = run(self.scenario(tmp_path), outdir=tmp_path)
        names = sorted(p.name for p in paths)
        assert names == [
            "mini_half_counts_min_eig.csv",
            "mini_integer_counts_min_eig.csv",
        ]

    def test_rows_have_metadata_and_are_sorted(self, tmp_path):
        paths = run(self.scenario(tmp_path), outdir=tmp_path)
        rows = read_csv(paths[0])
        assert rows[0] == list(COLUMNS)
        body = rows[1:]
        assert len(body) == 4 * 2  # grid points x parities
        grid_values = [float(r[0]) for r in body]
        assert grid_values == sorted(grid_values)
        assert body[0][6] == "cat_even" and body[1][6] == "cat_odd"
        assert body[0][7] == "0.5"  # eta
        assert body[0][8] == "5"    # bins
        assert {r[5] for r in body} <= {"nonclassical", "no_violation"}

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for target in (a, b):
            run(self.scenario(tmp_path), outdir=target)
        for path_a in sorted(a.iterdir()):
            path_b = b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_json_format(self, tmp_path):
        scenario = Scenario(
            name="mini",
            state=StateInput("coherent"),
            detector=DetectorConfig.onoff(4, 0.5),
            sets="integer",
            sweep=SweepSpec(start=0.5, stop=0.5, points=1),
        )
        import dataclasses

        scenario = dataclasses.replace(
            scenario, output=type(scenario.output)(format="json")
        )
        paths = run(scenario, outdir=tmp_path)
        payload = json.loads(paths[0].read_text())
        assert payload["columns"] == list(COLUMNS)
        assert len(payload["rows"]) == 1

    @pytest.mark.parametrize("scenario", [
        Scenario(
            name="labels",
            state=StateInput("cat", parity="both"),
            detector=DetectorConfig.onoff(5, 0.5),
            # labels csv.writer must quote, one label used twice (one file)
            # and an empty label
            sets=(('odd, "quoted"', (0, 1, 2)), ("new\nline", ("1/2", "3/2")),
                  ("twice", (1, 2)), ("twice", (0, 1)), ("", (0, 2))),
            kinds=("counts", "moments"),
            # equal grid values: rows keep their order within a state
            sweep=SweepSpec(start=0.5, stop=0.5, points=3, scale="linear"),
        ),
        Scenario(
            name="ratios",
            state=StateInput("coherent"),
            # a zero amplitude gives NaN ratios
            sweep=SweepSpec(start=0.0, stop=2.0, points=4, scale="linear"),
            criteria=RATIO_CRITERIA,
            mode_counts=(1, 3),
            cases=("i", "iii"),
        ),
    ], ids=["labels", "ratios"])
    def test_csv_matches_the_row_writer(self, scenario, tmp_path):
        csv_paths = run(scenario, outdir=tmp_path / "csv")
        as_json = dataclasses.replace(scenario, output=OutputSpec(format="json"))
        json_paths = run(as_json, outdir=tmp_path / "json")
        assert [p.stem for p in csv_paths] == [p.stem for p in json_paths]
        for csv_path, json_path in zip(csv_paths, json_paths):
            payload = json.loads(json_path.read_text())
            oracle = tmp_path / "oracle.csv"
            write_rows_csv(oracle, payload["columns"], payload["rows"])
            assert csv_path.read_bytes() == oracle.read_bytes()

    def test_user_labels_are_quoted(self, tmp_path):
        scenario = Scenario(
            name="labels",
            state=StateInput("coherent"),
            detector=DetectorConfig.onoff(5, 0.5),
            sets=(('odd, "quoted"', (0, 1)),),
            sweep=SweepSpec(start=0.5, stop=1.0, points=2),
        )
        path, = run(scenario, outdir=tmp_path)
        rows = read_csv(path)
        assert [row[1] for row in rows[1:]] == ['odd, "quoted"'] * 2
        assert '0.5,"odd, ""quoted""",counts_min_eig,' in path.read_text()

    def test_env_var_overrides_outdir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(ENV_OUTDIR, str(target))
        paths = run(self.scenario(tmp_path))
        assert all(p.parent == target for p in paths)

    def test_preset_catalogue(self):
        catalogue = presets()
        assert set(catalogue) == {"fig1", "fig3", "fig4", "fig5", "fig6"}
        assert catalogue["fig3"].detector.bins == 5
        assert catalogue["fig5"].detector.levels == 2
        assert catalogue["fig6"].mode_counts == (1, 2, 3, 5)


class TestMainEntry:
    def test_sets_command_prints_the_four_sets(self, capsys):
        code = main(["sets", "--model", "pnr", "--bins", "4", "--levels", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "int-int-int" in out
        assert "(1/2,0,3/2), (1/2,1,1/2), (3/2,0,1/2)" in out

    def test_witness_command(self, capsys):
        code = main([
            "witness", "--state", "cat", "--parity", "odd", "--alpha2", "1.0",
            "--model", "onoff", "--bins", "5", "--efficiency", "0.5",
            "--sets", "integer",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "nonclassical" in out

    def test_witness_json_output(self, capsys):
        code = main([
            "witness", "--state", "coherent", "--alpha2", "0.5",
            "--model", "onoff", "--bins", "4", "--json",
        ])
        records = json.loads(capsys.readouterr().out)
        assert code == 0
        assert {rec["set"] for rec in records} == {"integer", "half"}

    def test_sweep_command_with_flags(self, tmp_path, capsys):
        code = main([
            "sweep", "--state", "cat", "--parity", "both",
            "--model", "onoff", "--bins", "5", "--efficiency", "0.5",
            "--points", "3", "--start", "0.5", "--stop", "2.0",
            "--outdir", str(tmp_path), "--name", "cli",
        ])
        assert code == 0
        assert (tmp_path / "cli_integer_counts_min_eig.csv").exists()

    def test_sweep_command_with_scenario_file(self, tmp_path):
        doc = dict(TestScenarioParsing.BASE)
        doc["sweep"] = {"start": 0.5, "stop": 1.0, "points": 2}
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc))
        code = main([
            "sweep", "--scenario", str(scenario_path), "--outdir", str(tmp_path)
        ])
        assert code == 0
        assert (tmp_path / "demo_integer_counts_min_eig.csv").exists()

    def test_sample_command(self, tmp_path, capsys):
        code = main([
            "sample", "--state", "cat", "--parity", "odd", "--alpha2", "1.0",
            "--model", "onoff", "--bins", "5", "--efficiency", "0.5",
            "--shots", "20000", "--seed", "3", "--outdir", str(tmp_path),
            "--witness", "--sets", "integer", "--resamples", "60",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "histogram.csv").exists()
        assert "min_eig" in out

    def test_validation_errors_exit_2(self, capsys):
        assert main(["figures", "fig9"]) == 2
        assert "fig9" in capsys.readouterr().err
        assert main([
            "witness", "--state", "cat", "--parity", "odd", "--alpha2", "0.0",
            "--model", "onoff", "--bins", "5",
        ]) == 2

    def test_odd_cat_at_tiny_amplitude_has_no_traceback(self, tmp_path, capsys):
        # 1 - exp(-2|alpha|^2) rounds to 0 here unless the weight uses expm1.
        code = main([
            "sweep", "--state", "cat", "--parity", "odd", "--model", "onoff",
            "--bins", "5", "--start", "1e-17", "--stop", "1e-16", "--points", "2",
            "--outdir", str(tmp_path),
        ])
        if code == 0:
            for path in tmp_path.glob("*.csv"):
                for row in csv.DictReader(path.read_text().splitlines()):
                    assert math.isfinite(float(row["value"]))
        else:
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_overflow_at_large_amplitude_exits_2(self, tmp_path, capsys):
        # exp(|alpha|^2 eta / N) overflows in the pair sums (ROADMAP item 2).
        code = main([
            "sweep", "--state", "cat", "--parity", "odd", "--model", "onoff",
            "--bins", "1", "--efficiency", "1", "--start", "800", "--stop", "900",
            "--points", "2", "--outdir", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("flags, label, dim", [
        (["--model", "onoff", "--bins", "32"], "integer", 17),
        (["--model", "pnr", "--bins", "6", "--levels", "3"], "int-int-int-int", 20),
    ])
    def test_oversized_set_rejected_before_evaluation(
            self, flags, label, dim, tmp_path, capsys, monkeypatch):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("an entry was evaluated")

        monkeypatch.setattr("clickwitness.witnesses.povm_product_value", no_evaluation)
        code = main(["sweep", *flags, "--points", "3", "--outdir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"index set {label!r} has dimension {dim}" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_admissible_sweep_reaches_the_patched_kernel(self, tmp_path, monkeypatch):
        # positive control for the guard above: a sweep that is admitted
        # does evaluate its entries through witnesses.povm_product_value
        from clickwitness import witnesses

        kernel = witnesses.povm_product_value
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr("clickwitness.witnesses.povm_product_value", counted)
        code = main(["sweep", "--model", "onoff", "--bins", "5", "--points", "3",
                     "--outdir", str(tmp_path)])
        assert code == 0
        assert calls
        assert list(tmp_path.glob("*.csv"))

    def test_figures_command(self, tmp_path):
        code = main(["figures", "fig1", "--outdir", str(tmp_path)])
        assert code == 0
        produced = sorted(p.name for p in tmp_path.iterdir())
        assert "fig1_integer_counts_min_eig.csv" in produced
        assert "fig1_half_moments_min_eig.csv" in produced
