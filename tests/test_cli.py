import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entmean
from entmean import make_w
from entmean.cli import main
from entmean.states import MAX_PARTIES
from entmean.sweep import MAX_STEPS


class TestMeasure:
    def test_ghz_json(self, capsys):
        assert main(["measure", "--ghz", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dims"] == [2, 2, 2]
        assert doc["gbc"] == pytest.approx(1.0, abs=1e-12)
        assert doc["fill"] == pytest.approx(1.0, abs=1e-12)
        assert set(doc["concurrences"]) == {"0|12", "01|2", "02|1"}

    def test_w_text(self, capsys):
        assert main(["measure", "--w", "3"]) == 0
        out = capsys.readouterr().out
        assert "gbc" in out and "ggm" in out
        assert "0|12" in out

    def test_state_file(self, tmp_path, capsys):
        path = tmp_path / "w3.json"
        path.write_text(json.dumps(make_w(3).to_json_dict()))
        assert main(["measure", "--state-file", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gbc"] == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)

    def test_missing_state_file_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["measure", "--state-file", str(missing)]) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_non_finite_state_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"dims": [2, 2], "re": [NaN, 0, 0, 1]}')
        assert main(["measure", "--state-file", str(path)]) == 2
        assert "non-finite amplitudes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"dims": [2.7, 2], "re": [1, 0, 0, 0]}', "must be integers, got (2.7, 2)"),
            ('{"dims": [null, 2], "re": [1, 0, 0, 0]}', "must be integers, got (None, 2)"),
            ('{"dims": [Infinity, 2], "re": [1, 0, 0, 0]}', "must be integers, got (inf, 2)"),
            ('{"dims": [2, 2], "re": [1, 0, 0, 0], "im": [{}, 0, 0, 0]}', "field 'im' must be"),
            # amplitudes are JSON numbers: no strings, no booleans, none beyond a float
            ('{"dims": [2, 2], "re": [0.6, 0, 0, "0.8"]}', "field 're' must be a list"),
            ('{"dims": [2, 2], "re": [true, 0, 0, 0]}', "field 're' must be a list"),
            pytest.param('{"dims": [2, 2], "re": [1' + "0" * 400 + ', 0, 0, 0]}',
                         "in the float range", id="re-integer-beyond-float"),
            ('{"dims": [2, 2], "re": [1, 0, 0, 0], "im": null}', "field 'im' must be"),
            ('{"dims": [2, 2], "re": {"0": 1}}', "field 're' must be a list"),
            # a document that is not an object is named as such, not as a missing field
            ("[1, 0]", "must be a JSON object, got list"),
            ('"abc"', "must be a JSON object, got str"),
            ("null", "must be a JSON object, got NoneType"),
        ],
    )
    def test_malformed_state_file_exits_2(self, doc, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert main(["measure", "--state-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err

    def test_invalid_arity_exits_2(self, capsys):
        assert main(["measure", "--ghz", "1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--ghz", "--w"])
    def test_beyond_dense_cap_exits_2_before_allocating(self, flag, monkeypatch, capsys):
        real_zeros = np.zeros

        def guarded_zeros(shape, *args, **kwargs):
            if int(np.prod(shape)) > 2**MAX_PARTIES:
                pytest.fail(f"allocated {shape} amplitudes beyond the dense cap")
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr("entmean.states.np.zeros", guarded_zeros)
        assert main(["measure", flag, "40"]) == 2
        assert f"<= {MAX_PARTIES}" in capsys.readouterr().err

    def test_source_required(self):
        with pytest.raises(SystemExit) as info:
            main(["measure"])
        assert info.value.code == 2


class TestSweep:
    def test_writes_csv_and_plot(self, tmp_path, capsys):
        csv = tmp_path / "b.csv"
        plot = tmp_path / "b.gp"
        code = main(
            ["sweep", "--family", "b", "--steps", "11",
             "--out", str(csv), "--plot", str(plot)]
        )
        assert code == 0
        assert len(csv.read_text().splitlines()) == 12
        assert str(csv) in plot.read_text()

    def test_plot_doubles_a_quote_in_the_csv_path(self, tmp_path):
        csv = tmp_path / "it's.csv"
        plot = tmp_path / "a.gp"
        code = main(
            ["sweep", "--family", "a", "--steps", "5",
             "--out", str(csv), "--plot", str(plot)]
        )
        assert code == 0
        # inside a single-quoted gnuplot string a quote is written twice
        quoted = "'" + str(csv).replace("'", "''") + "'"
        plots = [line.strip() for line in plot.read_text().splitlines() if "every ::1" in line]
        assert len(plots) == 4
        assert all(line.startswith(f"{quoted} every ::1 ") for line in plots)

    def test_plot_names_a_non_ascii_csv_path(self, tmp_path, capsys):
        csv = tmp_path / "donn\u00e9es.csv"
        plot = tmp_path / "b.gp"
        code = main(
            ["sweep", "--family", "b", "--steps", "5",
             "--out", str(csv), "--plot", str(plot)]
        )
        assert code == 0, capsys.readouterr().err
        assert f"'{csv}' every ::1 " in plot.read_text(encoding="utf-8")

    @pytest.mark.parametrize("plot", ["f.csv", "./f.csv", "sub/../f.csv"])
    def test_plot_naming_the_csv_exits_2_and_writes_nothing(self, plot, tmp_path, capsys,
                                                            monkeypatch):
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        code = main(["sweep", "--family", "c", "--steps", "3", "--out", "f.csv", "--plot", plot])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--plot and --out name the same file" in captured.err
        assert not (tmp_path / "f.csv").exists()

    def test_measures_subset(self, tmp_path):
        csv = tmp_path / "c.csv"
        code = main(
            ["sweep", "--family", "c", "--steps", "5",
             "--measures", "gbc,gmc", "--out", str(csv)]
        )
        assert code == 0
        cells = csv.read_text().splitlines()[1].split(",")
        assert cells[4] == "" and cells[5] == ""

    def test_fill_for_family_c_is_diagnostic(self, tmp_path, capsys):
        code = main(
            ["sweep", "--family", "c", "--measures", "fill",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "fill" in capsys.readouterr().err

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "x.csv"
        code = main(["sweep", "--family", "b", "--steps", "3", "--out", str(target)])
        assert code == 1

    def test_steps_above_cap_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--family", "a", "--steps", str(MAX_STEPS + 1), "--out", str(out)])
        assert code == 2
        assert f"steps must be <= {MAX_STEPS}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_family_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--family", "q", "--out", "x.csv"])
        assert info.value.code == 2


class TestClosedForm:
    def test_table(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["closed-form", "--n-max", "20", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,gbc_ghz,gbc_w,ratio"
        assert len(lines) == 20

    def test_out_of_range_exits_2(self, tmp_path, capsys):
        code = main(["closed-form", "--n-max", "70", "--out", str(tmp_path / "t.csv")])
        assert code == 2


def assert_json_dump_bytes(text):
    """text is what json.dump(indent=2, sort_keys=True) writes for its document."""
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestOrdering:
    def test_findings_json(self, tmp_path):
        out = tmp_path / "findings.json"
        code = main(
            ["ordering", "--family-x", "a", "--family-y", "b",
             "--x", "gmc", "--y", "gbc",
             "--match-tol", "2e-3", "--sep-min", "2e-2",
             "--steps", "401", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        doc = json.loads(text)
        assert_json_dump_bytes(text)
        # the tolerance is written as its float's repr, not its argument text
        assert '"match_tol": 0.002,' in text
        assert doc["x"] == "gmc" and doc["y"] == "gbc"
        pairs = [f for f in doc["findings"] if f["kind"] == "equal-x-different-y"]
        assert pairs
        assert {"theta_pair", "values", "measure_x"} <= set(pairs[0])

    def test_same_family_sweeps_once_and_lists_each_interval_once(
        self, tmp_path, monkeypatch
    ):
        calls = []
        real_run_sweep = entmean.cli.run_sweep

        def counted(spec):
            calls.append(spec.family)
            return real_run_sweep(spec)

        monkeypatch.setattr(entmean.cli, "run_sweep", counted)
        out = tmp_path / "cc.json"
        code = main(
            ["ordering", "--family-x", "c", "--family-y", "c",
             "--x", "gbc", "--y", "ggm", "--steps", "201", "--out", str(out)]
        )
        assert code == 0
        assert calls == ["c"]
        findings = json.loads(out.read_text())["findings"]
        intervals = [
            tuple(f["theta_interval"]) for f in findings
            if f["kind"] == "opposite-slope-interval"
        ]
        assert len(intervals) == 1
        assert len(findings) == 5

    def test_findings_above_cap_exit_2_without_a_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(entmean.sweep, "MAX_FINDINGS", 50)
        out = tmp_path / "all.json"
        code = main(
            ["ordering", "--family-x", "a", "--family-y", "b",
             "--x", "gbc", "--y", "gmc", "--match-tol", "1", "--sep-min", "0",
             "--steps", "21", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "more than 50 findings with match_tol=1.0 and sep_min=0.0" in err

    @pytest.mark.parametrize("option", ["--match-tol", "--sep-min"])
    def test_nan_tolerance_exits_2_without_a_file(self, tmp_path, monkeypatch, capsys, option):
        # rejected before the sweeps, which a spy sees never start
        sweeps = []
        monkeypatch.setattr(entmean.cli, "run_sweep", lambda spec: sweeps.append(spec))
        out = tmp_path / "nan.json"
        code = main(
            ["ordering", "--family-x", "a", "--family-y", "b", "--x", "gbc", "--y", "gmc",
             option, "nan", "--steps", "10001", "--out", str(out)]
        )
        assert code == 2
        assert not sweeps
        assert not out.exists()
        name = option[2:].replace("-", "_")
        assert f"{name} must not be NaN" in capsys.readouterr().err

    def test_infinite_match_tol_written_as_infinity(self, tmp_path):
        out = tmp_path / "inf.json"
        code = main(
            ["ordering", "--family-x", "a", "--family-y", "b", "--x", "gbc", "--y", "gmc",
             "--match-tol", "inf", "--sep-min", "0.3", "--steps", "21", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert_json_dump_bytes(text)
        assert '"match_tol": Infinity,' in text
        assert json.loads(text)["findings"]

    def test_fill_against_family_c_exits_2(self, tmp_path, capsys):
        code = main(
            ["ordering", "--family-x", "c", "--family-y", "b",
             "--x", "fill", "--y", "gbc", "--out", str(tmp_path / "f.json")]
        )
        assert code == 2


def test_module_entry_point_runs():
    # the child finds the package where this process found it, also when
    # only pytest's pythonpath setting put it there
    paths = [str(Path(entmean.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-m", "entmean", "measure", "--ghz", "2", "--json"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gbc"] == pytest.approx(1.0, abs=1e-12)
