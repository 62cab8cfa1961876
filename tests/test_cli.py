import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from boostdyn import (StepEvent, StepKind, Waveform, analysis, cli, simulate_switched,
                      steady_output)

CONVERTER_KEYS = ("v_i", "l", "r_l", "c", "r_c", "r_m", "v_d", "r_0", "d", "f_sw")
AUDIT_KEYS = {"t0", "t1", "e_l", "e_c", "e_r", "e_vd", "e_rm", "e_rl", "e_rc", "residual", "flags"}


def csv_cell(value):
    """A CSV cell as the CLI writes it: floats by ``repr``, None empty."""
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def write_config(tmp_path, p, **blocks):
    cfg = {"converter": {name: getattr(p, name) for name in CONVERTER_KEYS}, **blocks}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSimulationSetup:
    def test_input_step_starts_from_rest_before_the_step(self, line_params):
        event = StepEvent(StepKind.INPUT_VOLTAGE, 1.0, line_params.v_i)
        sim_p, initial, events = analysis.simulation_setup(line_params, event)
        assert sim_p == dataclasses.replace(line_params, v_i=1.0)
        assert (initial, events) == ("zero", [event])

    def test_load_step_starts_steady_at_the_pre_step_load(self, load_params):
        event = StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 150.0)
        sim_p, initial, events = analysis.simulation_setup(load_params, event)
        assert sim_p == dataclasses.replace(load_params, r_0=10.0)
        assert (initial, events) == ("steady", [event])

    def test_no_event_keeps_the_callers_start(self, load_params):
        for initial in ("zero", "steady"):
            assert analysis.simulation_setup(load_params, None, initial) == (
                load_params, initial, [])


class TestAudit:
    def test_exits_zero_with_documented_keys(self, fast_params, tmp_path, capsys):
        t_end = 40 * fast_params.period
        config = write_config(tmp_path, fast_params, solver={"t_end": t_end})
        assert cli.main(["audit", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == AUDIT_KEYS
        assert payload["t1"] == t_end
        assert abs(payload["residual"]) <= 1e-3 * payload["e_l"]

    def test_load_step_run_starts_steady(self, load_params, tmp_path, capsys):
        event = {"kind": "load_resistance", "value_before": 10.0, "value_after": 150.0}
        config = write_config(tmp_path, load_params, event=event)
        assert cli.main(["audit", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flags"] == ["dcm"]


class TestSimulate:
    @pytest.mark.parametrize("event", [None, {"kind": "input_voltage", "value_before": 1.0,
                                              "value_after": 3.0, "t_event": 1e-4}])
    def test_switched_csv_is_the_library_run(self, fast_params, tmp_path, event):
        t_end = 30 * fast_params.period
        blocks = {"solver": {"t_end": t_end}}
        if event:
            blocks["event"] = event
        config = write_config(tmp_path, fast_params, **blocks)
        out = tmp_path / "wave.csv"
        assert cli.main(["simulate", "--engine", "switched", "--config", config,
                         "--out", str(out)]) == 0
        v = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        parsed = cli.parse_event(cli.load_config(config), fast_params) if event else None
        sim_p, initial, events = analysis.simulation_setup(fast_params, parsed, "zero")
        want = simulate_switched(sim_p, events, 200, t_end, initial_state=initial).v_out
        assert np.array_equal(v, want)


class TestPredict:
    def test_waveform_csv_is_the_closed_form_solve(self, line_params, tmp_path, capsys):
        event = {"kind": "input_voltage", "value_before": 2.0, "value_after": line_params.v_i,
                 "t_event": 1e-3}
        config = write_config(tmp_path, line_params, event=event,
                              solver={"steps_per_cycle": 10, "t_end": 5e-3})
        out = tmp_path / "wave.csv"
        assert cli.main(["predict", "--model", "fr", "--config", config,
                         "--waveform", str(out)]) == 0
        solved = analysis.closed_form(
            line_params, StepEvent(StepKind.INPUT_VOLTAGE, 2.0, line_params.v_i, 1e-3), "fr")
        assert json.loads(capsys.readouterr().out)["v_max"] == solved.metrics.v_max
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 1], solved.waveform(1e-3, 1e-5, 5e-3).samples)
        assert data[0, 1] == 2.0 / (1.0 - line_params.d)

    def test_out_file_receives_the_json_and_stdout_nothing(self, line_params, tmp_path, capsys):
        event = {"kind": "input_voltage", "value_before": 0.0, "value_after": line_params.v_i}
        config = write_config(tmp_path, line_params, event=event)
        assert cli.main(["predict", "--config", config]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "metrics.json"
        assert cli.main(["predict", "--config", config, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed
        assert json.loads(printed)["model"] == "tfm"


class TestCompare:
    def test_csv_is_the_library_table(self, fast_params, tmp_path):
        event = {"kind": "load_resistance", "value_before": fast_params.r_0, "value_after": 40.0,
                 "t_event": 2e-4}
        config = write_config(tmp_path, fast_params, event=event)
        out = tmp_path / "table.csv"
        assert cli.main(["compare", "--config", config, "--out", str(out)]) == 0
        table = analysis.compare_models(
            fast_params, StepEvent(StepKind.LOAD_RESISTANCE, fast_params.r_0, 40.0, 2e-4))
        want = ["model,v_steady,v_max,t_p,steady_error_pct,dynamic_error_pct,rmse,flags"]
        want += [",".join(csv_cell(v) for v in (r.model, r.v_steady, r.v_max, r.t_p,
                                                r.steady_error_pct, r.dynamic_error_pct,
                                                r.rmse_v, ";".join(r.flags)))
                 for r in table.rows]
        assert out.read_text() == "\n".join(want) + "\n"


class TestDescend:
    def test_held_steady_output_is_written_and_the_peak_falls(self, line_params, tmp_path):
        descent = {"free": ["l", "c"], "constraint": "constant-steady-output", "max_steps": 4}
        config = write_config(tmp_path, line_params, descent=descent)
        out = tmp_path / "path.csv"
        assert cli.main(["descend", "--config", config, "--out", str(out)]) == 0
        path = analysis.steepest_descent(line_params, ["l", "c"], "constant-steady-output", 4)
        lines = out.read_text().splitlines()
        assert lines[0] == "step,l,c,v_max,steady_output"
        assert lines[1:] == [
            ",".join(csv_cell(v) for v in (k, s.params.l, s.params.c, s.v_max,
                                           steady_output(s.params)))
            for k, s in enumerate(path.steps)]
        data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert data.shape[0] > 2
        assert np.all(np.diff(data[:, 3]) < 0)
        assert np.allclose(data[:, 4], steady_output(line_params), rtol=1e-9)

    def test_repeated_free_name_exits_two(self, line_params, tmp_path, capsys):
        config = write_config(tmp_path, line_params, descent={"free": ["l", "l"]})
        out = tmp_path / "path.csv"
        assert cli.main(["descend", "--config", config, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        payload = json.loads(captured.err)
        assert (payload["error"], payload["exit_code"]) == ("ConfigError", 2)
        assert "distinct" in payload["message"]


class TestSweep:
    def test_csv_marks_invalid_cells(self, line_params, tmp_path):
        sweep = {"axis1": {"name": "d", "lo": 0.5, "hi": 1.2, "n": 4},
                 "axis2": {"name": "l", "lo": 5e-4, "hi": 2e-3, "n": 3}}
        config = write_config(tmp_path, line_params, sweep=sweep)
        out = tmp_path / "grid.csv"
        assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
        grid = analysis.sweep(line_params, analysis.SweepAxis("d", 0.5, 1.2, 4),
                              analysis.SweepAxis("l", 5e-4, 2e-3, 3))
        cells = [line.split(",")[1:] for line in out.read_text().splitlines()[1:]]
        want = [[repr(float(v)) if ok else "invalid" for v, ok in zip(row, mask)]
                for row, mask in zip(grid.values, grid.valid)]
        assert cells == want
        assert want[-1] == ["invalid"] * 3 and "invalid" not in want[0]


#: fast_params' own input step
COLD = {"kind": "input_voltage", "value_before": 0.0, "value_after": 3.0}
AXIS = {"name": "l", "lo": 5e-5, "hi": 2e-4, "n": 3}
SWEEP = {"axis1": AXIS, "axis2": {"name": "c", "lo": 5e-6, "hi": 2e-5, "n": 2}}
NAN = float("nan")

#: (command, config blocks) of malformed configs that must exit 2
MALFORMED = {
    "event-not-an-object": ("predict", {"event": 5}),
    "event-value-null": ("predict", {"event": {**COLD, "value_before": None}}),
    "steps-per-cycle-text": ("simulate", {"solver": {"steps_per_cycle": "x"}}),
    "t-end-text": ("simulate", {"solver": {"t_end": "x"}}),
    "axis-n-text": ("sweep", {"sweep": {**SWEEP, "axis1": {**AXIS, "n": "x"}}}),
    "audit-t0-text": ("audit", {"audit": {"t0": "x"}}),
    "steps-per-cycle-zero": ("simulate", {"solver": {"steps_per_cycle": 0}}),
    "t-event-nan": ("simulate", {"event": {**COLD, "t_event": NAN}}),
    "t-end-nan": ("simulate", {"solver": {"t_end": NAN}}),
    "audit-t1-nan": ("audit", {"audit": {"t1": NAN}}),
    "compare-t-end-negative": ("compare", {"event": COLD, "solver": {"t_end": -1}}),
    "output-block": ("predict", {"event": COLD, "output": {"path": "x.json"}}),
    "compare-solver-dt": ("compare", {"event": COLD, "solver": {"dt": 1e-7}}),
    "t-end-zero": ("simulate", {"solver": {"t_end": 0}}),
    "sweep-bound-nan": ("sweep", {"sweep": {**SWEEP, "axis1": {**AXIS, "hi": NAN}}}),
    "axis-n-zero": ("sweep", {"sweep": {**SWEEP, "axis1": {**AXIS, "n": 0}}}),
}


class TestConfigSchema:
    @pytest.mark.parametrize("command, blocks", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_config_exits_two(self, fast_params, tmp_path, capsys, command, blocks):
        config = write_config(tmp_path, fast_params, **blocks)
        assert cli.main([command, "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert set(payload) == {"error", "message", "exit_code"}
        assert payload["exit_code"] == 2

    def test_null_is_an_absent_key(self, line_params, tmp_path, capsys):
        event = {"kind": "input_voltage", "value_before": 1.0, "value_after": line_params.v_i}
        runs = []
        for blocks in ({"event": event},
                       {"event": {**event, "t_event": None}, "solver": {"t_end": None},
                        "audit": None}):
            config = write_config(tmp_path, line_params, **blocks)
            out = tmp_path / "wave.csv"
            assert cli.main(["predict", "--config", config, "--waveform", str(out)]) == 0
            runs.append((capsys.readouterr().out, out.read_text()))
        assert runs[0] == runs[1]


class TestErrorContract:
    def test_unsupported_sweep_model_is_a_config_error(self, line_params, tmp_path, capsys):
        axis = {"name": "l", "lo": 5e-4, "hi": 2e-3, "n": 3}
        sweep = {"axis1": axis, "axis2": {**axis, "name": "c", "lo": 2e-5, "hi": 8e-5},
                 "model": "fr"}
        config = write_config(tmp_path, line_params, sweep=sweep)
        assert cli.main(["sweep", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ConfigError", "exit_code": 2,
            "message": "sweep models are the two closed forms: 'ebm' or 'tfm'"}

    def test_invalid_converter_names_every_violation(self, fast_params, tmp_path, capsys):
        config = Path(write_config(tmp_path, fast_params, event=COLD))
        cfg = json.loads(config.read_text())
        cfg["converter"].update(d=1.0, l=0.0)
        config.write_text(json.dumps(cfg))
        assert cli.main(["predict", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ParameterError", "exit_code": 2,
            "message": "invalid converter parameters: NonPositiveComponent(l); DutyOutOfRange(d)"}

    def test_format_option_is_refused(self, line_params, tmp_path):
        event = {"kind": "input_voltage", "value_before": 0.0, "value_after": line_params.v_i}
        config = write_config(tmp_path, line_params, event=event)
        with pytest.raises(SystemExit) as exc:
            cli.main(["compare", "--config", config, "--format", "json"])
        assert exc.value.code == 2

    def test_correction_out_of_domain_exits_three(self, load_params, tmp_path, capsys):
        p = dataclasses.replace(load_params, l=2e-3)
        event = {"kind": "load_resistance", "value_before": p.r_0, "value_after": 150.0}
        config = write_config(tmp_path, p, event=event)
        assert cli.main(["predict", "--config", config]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert (payload["error"], payload["exit_code"]) == ("CorrectionOutOfDomain", 3)
        assert set(payload) == {"error", "message", "exit_code"}

    def test_internal_error_exits_one_with_one_json_line(self, line_params, tmp_path, capsys,
                                                        monkeypatch):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(analysis, "closed_form", broken)
        event = {"kind": "input_voltage", "value_before": 0.0, "value_after": line_params.v_i}
        config = write_config(tmp_path, line_params, event=event)
        assert cli.main(["predict", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "RuntimeError", "message": "boom", "exit_code": 1}


class TestWaveformCsv:
    def test_bytes_match_the_row_writer(self, tmp_path):
        samples = np.array([0.0, 0.1 + 0.2, -1e-300, 5.0, 1.0 / 3.0, 12345.678901234567])
        wave = Waveform(0.0, 1e-7, samples)
        fast, rows = tmp_path / "fast.csv", tmp_path / "rows.csv"
        cli.write_waveform_csv(str(fast), wave)
        cli.write_csv(str(rows), ["t", "v"],
                      [[float(t), float(v)] for t, v in zip(wave.times, wave.samples)])
        assert fast.read_bytes() == rows.read_bytes()
        assert fast.read_bytes().startswith(b"t,v\n0.0,0.0\n1e-07,0.30000000000000004\n")
