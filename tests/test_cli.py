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
from clickwitness.multimode import MAX_MODES
from clickwitness.states import FockVector
from clickwitness.witnesses import count_matrix, enumerate_index_sets
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

    @pytest.mark.parametrize("changes, field", [
        ({"state": [1]}, "state"),
        ({"state": {"parity": "odd"}}, "kind"),
        ({"sweep": {"start": 0.1, "stop": 1.0, "points": [2]}}, "points"),
        ({"sets": 5}, "sets"),
        ({"sets": [{"label": "a"}]}, "elements"),
        ({"sets": [[0, True]]}, "sets"),
        ({"kinds": "counts"}, "kinds"),
        # numbers are taken as JSON gives them, never truncated or cast
        ({"detector": {"model": "onoff", "bins": 5.9, "efficiency": 0.5}}, "bins"),
        ({"detector": {"model": "pnr", "bins": 4, "levels": 2.0}}, "levels"),
        ({"detector": {"model": "onoff", "bins": 5, "efficiency": True}}, "efficiency"),
        ({"detector": {"model": "onoff", "bins": 5, "dark": "0.1"}}, "dark"),
        ({"sweep": {"start": 0.1, "stop": 1.0, "points": 2.7}}, "points"),
        ({"sweep": {"start": True, "stop": 1.0, "points": 3}}, "start"),
        ({"state": {"kind": "cat", "parity": "both", "modes": True}}, "modes"),
        ({"state": {"kind": "fock", "coefficients": [0.6, True]}}, "coefficients"),
        ({"mode_counts": [2.5]}, "mode_counts"),
        ({"mode_counts": ["2"]}, "mode_counts"),
        ({"mode_counts": [True]}, "mode_counts"),
    ])
    def test_malformed_fields_raise_value_errors(self, changes, field):
        with pytest.raises(ValueError, match=field):
            scenario_from_json(json.dumps(dict(self.BASE, **changes)))

    # JSON reads NaN and Infinity; an endpoint must be a finite |alpha|^2 >= 0
    @pytest.mark.parametrize("sweep, message", [
        ({"start": float("nan"), "stop": 1.0, "points": 3}, "start = nan"),
        ({"start": 0.1, "stop": float("inf"), "points": 3}, "stop = inf"),
        ({"start": -1.0, "stop": 1.0, "points": 3, "scale": "linear"}, "start = -1.0"),
    ], ids=["start-nan", "stop-inf", "start-negative"])
    def test_sweep_endpoints_must_be_finite_and_non_negative(self, sweep, message):
        with pytest.raises(ValueError, match=message):
            scenario_from_json(json.dumps(dict(self.BASE, sweep=sweep)))

    @pytest.mark.parametrize("changes, message", [
        # a mode count below 1 wrote modes=0 rows computed for one mode, or
        # ended in a math domain error
        ({"mode_counts": [0]}, "mode_counts must be >= 1"),
        ({"mode_counts": [-2]}, "mode_counts must be >= 1"),
        ({"mode_counts": [2, 2]}, "mode_counts has duplicate entries"),
        # a duplicate case or kind wrote every row twice
        ({"cases": ["ii", "ii"]}, "cases has duplicate entries"),
        ({"kinds": ["counts", "counts"]}, "kinds has duplicate entries"),
    ], ids=["modes-0", "modes-negative", "modes-twice", "case-twice", "kind-twice"])
    def test_bad_mode_counts_and_duplicates_exit_2(self, changes, message, tmp_path, capsys):
        base = dict(self.BASE)
        if "kinds" not in changes:
            base.update(detector=None, sets=None, criteria=list(RATIO_CRITERIA),
                        mode_counts=[1], cases=["ii"])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(base, **changes)))
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(path), "--outdir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_mode_count_above_the_cap_exits_2_before_evaluation(
            self, tmp_path, capsys, monkeypatch):
        # a mode count of 9 used to run and write case_*_mu9_* files
        def no_evaluation(*args, **kwargs):
            raise AssertionError("an expectation was evaluated")

        monkeypatch.setattr("clickwitness.multimode.expect", no_evaluation)
        base = dict(self.BASE, detector=None, sets=None, criteria=list(RATIO_CRITERIA),
                    mode_counts=[2, MAX_MODES + 1], cases=["ii"])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base))
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(path), "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"mode_counts are capped at MAX_MODES = {MAX_MODES}, got {MAX_MODES + 1}" in err
        assert not out.exists()
        at_cap = scenario_from_json(json.dumps(dict(base, mode_counts=[MAX_MODES])))
        assert at_cap.mode_counts == (MAX_MODES,)

    def test_duplicate_kind_flags_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep", "--bins", "5", "--points", "2", "--kind", "counts",
                     "--kind", "counts", "--outdir", str(out)])
        assert code == 2
        assert "kinds has duplicate entries" in capsys.readouterr().err
        assert not out.exists()

    def test_document_must_be_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            scenario_from_json("[1]")

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

    @pytest.mark.parametrize("scenario, first_cell", [
        pytest.param(Scenario(
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
        ), None, id="labels"),
        pytest.param(Scenario(
            name="ratios",
            state=StateInput("coherent"),
            # a zero amplitude gives NaN ratios
            sweep=SweepSpec(start=0.0, stop=2.0, points=4, scale="linear"),
            criteria=RATIO_CRITERIA,
            mode_counts=(1, 3),
            cases=("i", "iii"),
        ), None, id="ratios"),
        pytest.param(Scenario(
            name="descending",
            state=StateInput("cat", parity="both"),
            detector=DetectorConfig.onoff(5, 0.5),
            sweep=SweepSpec(start=8.0, stop=1e-3, points=9),
        ), None, id="descending-log"),
        pytest.param(Scenario(
            name="negzero",
            state=StateInput("coherent"),
            detector=DetectorConfig.onoff(5, 0.5),
            # a descending linear grid ends at -0.0, which sorts first
            sweep=SweepSpec(start=2.0, stop=-0.0, points=5, scale="linear"),
        ), "-0", id="negative-zero"),
    ])
    def test_csv_matches_the_row_writer(self, scenario, first_cell, tmp_path):
        csv_paths = run(scenario, outdir=tmp_path / "csv")
        as_json = dataclasses.replace(scenario, output=OutputSpec(format="json"))
        json_paths = run(as_json, outdir=tmp_path / "json")
        assert [p.stem for p in csv_paths] == [p.stem for p in json_paths]
        for csv_path, json_path in zip(csv_paths, json_paths):
            payload = json.loads(json_path.read_text())
            oracle = tmp_path / "oracle.csv"
            write_rows_csv(oracle, payload["columns"], payload["rows"])
            assert csv_path.read_bytes() == oracle.read_bytes()
            if first_cell is not None:
                assert csv_path.read_text().splitlines()[1].startswith(first_cell + ",")

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

    def test_malformed_scenario_file_exits_2(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(dict(TestScenarioParsing.BASE, sets=5)))
        outdir = tmp_path / "out"
        code = main(["sweep", "--scenario", str(scenario_path), "--outdir", str(outdir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "sets" in err
        assert not outdir.exists()

    def test_fractional_scenario_number_exits_2(self, tmp_path, capsys):
        doc = dict(TestScenarioParsing.BASE, criteria=["moment_ratio", "mean_photon_number"],
                   mode_counts=[2.5], cases=["ii"])
        del doc["detector"], doc["sets"]
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        code = main(["sweep", "--scenario", str(scenario_path), "--outdir", str(outdir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "mode_counts" in err
        assert not outdir.exists()

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

    def test_odd_cat_at_tiny_amplitude_writes_its_rows(self, tmp_path):
        # its normalization sums no terms of opposite sign
        code = main([
            "sweep", "--state", "cat", "--parity", "odd", "--model", "onoff",
            "--bins", "5", "--start", "1e-17", "--stop", "1e-16", "--points", "2",
            "--outdir", str(tmp_path),
        ])
        assert code == 0
        paths = sorted(tmp_path.glob("*.csv"))
        assert len(paths) == 2
        for path in paths:
            rows = list(csv.DictReader(path.read_text().splitlines()))
            assert len(rows) == 2 and all(math.isfinite(float(r["value"])) for r in rows)

    def test_odd_cat_at_tiny_amplitude_witness_matches_its_sweep_row(self, tmp_path,
                                                                    capsys):
        # A single cat is checked with the stacks' normalization, whose
        # terms do not cancel; it used to read <psi|psi> = 0j here.
        detector = ["--model", "onoff", "--bins", "5", "--efficiency", "0.5"]
        code = main(["witness", "--state", "cat", "--parity", "odd",
                     "--alpha2", "1e-17", *detector, "--json"])
        assert code == 0
        printed = {r["set"]: r["min_eig"] for r in json.loads(capsys.readouterr().out)}
        code = main(["sweep", "--state", "cat", "--parity", "odd", *detector,
                     "--start", "1e-17", "--stop", "1e-16", "--points", "2",
                     "--scale", "linear", "--outdir", str(tmp_path)])
        assert code == 0
        for set_id, min_eig in printed.items():
            path = tmp_path / f"sweep_{set_id}_counts_min_eig.csv"
            row = next(csv.DictReader(path.read_text().splitlines()))
            assert float(row["grid_value"]) == 1e-17
            assert float(row["value"]) == min_eig
        assert sorted(printed) == ["half", "integer"]

    def test_non_finite_dark_counts_exit_2(self, tmp_path, capsys):
        code = main([
            "sweep", "--state", "cat", "--parity", "odd", "--model", "onoff",
            "--bins", "5", "--dark", "nan", "--points", "2", "--outdir", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: dark parameter nan is out of range")
        assert not list(tmp_path.rglob("*"))

    def test_overflow_at_large_amplitude_exits_2(self, tmp_path, capsys, monkeypatch):
        # exp(|alpha|^2 eta / N) overflows in the pair sums (ROADMAP item 4); the
        # admission step names the detector, the first grid point past the float
        # range and the limit, before any entry is evaluated
        def no_evaluation(*args, **kwargs):
            raise AssertionError("an entry was evaluated")

        monkeypatch.setattr("clickwitness.witnesses.povm_product_value", no_evaluation)
        limit = "beyond the largest float, exp(LOG_FLOAT_MAX) = exp(709.78)\n"
        for detector, start, stop, message in (
            (["--model", "onoff", "--bins", "1"], "800", "900",
             "onoff N=1 at eta=1, nu=0: the expectation of POVM exponents (0, 1) overflows "
             "at |alpha|^2 = 800, where an intermediate reaches exp(800.00), "),
            (["--model", "pnr", "--bins", "2", "--levels", "3"], "1000", "1500",
             "pnr N=2 K=3 at eta=1, nu=0: the expectation of POVM exponents (0, 0, 0, 2) "
             "overflows at |alpha|^2 = 1000, where an intermediate reaches exp(1023.46), "),
        ):
            outdir = tmp_path / detector[1]
            code = main([
                "sweep", "--state", "cat", "--parity", "odd", *detector,
                "--efficiency", "1", "--start", start, "--stop", stop,
                "--points", "2", "--outdir", str(outdir),
            ])
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}{limit}"
            assert not outdir.exists()

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

    def test_sample_of_both_parities_exits_2_before_drawing(self, tmp_path, capsys):
        code = main([
            "sample", "--state", "cat", "--parity", "both", "--model", "pnr",
            "--bins", "4", "--levels", "2", "--efficiency", "0.5",
            "--shots", "100000", "--witness", "--outdir", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "pass --parity even or odd" in err
        assert not list(tmp_path.rglob("*"))

    def test_sample_with_one_resample_exits_2_before_drawing(self, tmp_path, capsys):
        code = main([
            "sample", "--bins", "5", "--shots", "10", "--witness", "--resamples", "1",
            "--outdir", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: need at least 2 bootstrap resamples\n"
        assert not list(tmp_path.rglob("*"))

    @pytest.mark.parametrize("command", [
        ["sweep", "--points", "2"], ["witness"], ["sample", "--shots", "1000", "--witness"],
    ])
    @pytest.mark.parametrize("model", [
        ["--model", "onoff", "--bins", "4"],
        ["--model", "pnr", "--bins", "4", "--levels", "2"],
        ["--model", "photoelectric"],
    ])
    def test_multimode_state_on_a_detector_exits_2(
            self, command, model, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # witness takes no --outdir
        outdir = [] if command == ["witness"] else ["--outdir", str(tmp_path)]
        code = main([*command, "--state", "cat", "--parity", "odd", "--modes", "2",
                     *model, "--efficiency", "0.5", *outdir])
        err = capsys.readouterr().err
        assert code == 2
        # the up-front check names the mode count; the kernel's message does not
        assert err == "error: detector models address a single mode, got modes=2\n"
        assert not list(tmp_path.rglob("*"))

    @pytest.mark.xfail(strict=True, reason="odd-cat pair sums cancel at |alpha|^2 <= 1e-16")
    def test_odd_cat_at_1e_16_reads_the_one_photon_value(self, tmp_path):
        # Its state is |1> up to O(|alpha|^2); the pair-sum kernel gives c_0 = 1.0
        # instead of 0.5 there and min_eig -0.0099 instead of -0.0193.
        code = main([
            "sweep", "--state", "cat", "--parity", "odd", "--model", "onoff",
            "--bins", "5", "--efficiency", "0.5", "--sets", "integer",
            "--start", "1e-17", "--stop", "1e-14", "--points", "4",
            "--outdir", str(tmp_path),
        ])
        assert code == 0
        text = (tmp_path / "sweep_integer_counts_min_eig.csv").read_text()
        values = [float(r["value"]) for r in csv.DictReader(text.splitlines())]
        cfg = DetectorConfig.onoff(bins=5, efficiency=0.5)
        iset, _ = enumerate_index_sets(cfg)
        one_photon = count_matrix(FockVector((0.0, 1.0)), cfg, iset).min_eig
        # grid 1e-17, 1e-16, 1e-15, 1e-14: the last two rows are right today
        assert values[3] == pytest.approx(one_photon, rel=1e-9)
        assert values[1] == pytest.approx(one_photon, rel=1e-9)

    def test_figures_command(self, tmp_path):
        code = main(["figures", "fig1", "--outdir", str(tmp_path)])
        assert code == 0
        produced = sorted(p.name for p in tmp_path.iterdir())
        assert "fig1_integer_counts_min_eig.csv" in produced
        assert "fig1_half_moments_min_eig.csv" in produced
