"""Command line interface: parsing, the full artifact pipeline, exit codes."""

import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from rampnet import harness, sysid
from rampnet.cli import _parse_horizons, _parse_seeds, build_parser, main
from rampnet.harness import UsageError
from rampnet.mpc import MpcConfig
from rampnet.network import (CellParams, Highway, NetworkConfig, RampSpec,
                             benchmark_config_path, serialize_config)
from rampnet.sysid import fit_derivatives


def _tiny_network():
    cell = CellParams(length_km=0.5, lanes=3, free_flow_kmh=100.0,
                      capacity_vphl=2000.0, jam_density_vkml=160.0)
    # Demand above the merge cell's capacity so the meter actually works
    # and the collected logs carry excitation.
    return NetworkConfig(
        highways=(Highway("H1", (cell,) * 3, 5200.0),),
        ramps=(RampSpec("H1-R1", "H1", 1, "H1-S1", 1500.0),),
        sim_step_s=1.0,
        control_step_s=30.0,
        burn_in_s=60.0,
        horizon_duration_s=240.0,
    )


def test_parser_exposes_the_five_commands():
    parser = build_parser()
    commands = []
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices:
            commands = list(action.choices)
    assert commands == ["collect", "fit", "run", "sweep", "report"]


def test_seed_and_horizon_parsing():
    assert _parse_seeds("1,2,3") == [1, 2, 3]
    assert _parse_seeds("7") == [7]
    for bad in ("one,two", "-1", "2,-3"):
        with pytest.raises(UsageError, match="bad seed list"):
            _parse_seeds(bad)
    assert _parse_horizons("3:5") == [3, 4, 5]
    assert _parse_horizons("3,5,7") == [3, 5, 7]
    for bad in ("3:x", "5:3", ","):
        with pytest.raises(UsageError, match="bad horizon list"):
            _parse_horizons(bad)
    run = build_parser().parse_args(["run", "--sindyc-model", "s.json",
                                     "--dmdc-model", "d.json", "--seeds", "1",
                                     "--out", "out"])
    assert run.horizon == MpcConfig().horizon


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main([])


def test_full_pipeline_on_a_small_network(tmp_path, capsys):
    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text(serialize_config(_tiny_network()), encoding="utf-8")
    logs = tmp_path / "logs"
    sindyc_path = tmp_path / "sindyc.json"
    dmdc_path = tmp_path / "dmdc.json"
    report_dir = tmp_path / "report"

    assert main(["collect", "--config", str(cfg_path), "--controller",
                 "alinea", "--seeds", "1,2,3", "--out", str(logs)]) == 0
    assert sorted(p.name for p in logs.glob("*.csv")) == [
        "alinea-seed1.csv", "alinea-seed2.csv", "alinea-seed3.csv"]

    assert main(["fit", "--config", str(cfg_path), "--logs", str(logs),
                 "--method", "sindyc", "--out", str(sindyc_path)]) == 0
    assert main(["fit", "--config", str(cfg_path), "--logs", str(logs),
                 "--method", "dmdc", "--out", str(dmdc_path)]) == 0
    assert json.loads(sindyc_path.read_text())["provenance"]["method"] == "sindyc"
    out = capsys.readouterr().out
    # One sensor and one meter: SINDYc solves the 6-column library, DMDc
    # its first 3 columns.
    assert re.findall(r"^columns: (\d+), active per state", out, re.M) == ["6", "3"]

    assert main(["run", "--config", str(cfg_path),
                 "--sindyc-model", str(sindyc_path),
                 "--dmdc-model", str(dmdc_path),
                 "--seeds", "5", "--horizon", "2",
                 "--out", str(report_dir)]) == 0
    out = capsys.readouterr().out
    assert "sindyc-mpc" in out and "report ->" in out
    assert out.count("% converged") == 2 and "fallbacks 0" in out
    assert out.count("burn-in ") == 2 and out.count("recorded ") == 2
    assert out.count(" handed over, ") == 4
    assert len(re.findall(r" solves \(\d+ capped, \d+ stalled\), ", out)) == 4
    assert out.count("time: plant ") == 5
    summary = json.loads((report_dir / "summary.json").read_text())
    assert summary["seeds"] == [5]
    # Each window prints its time per iteration when it made any: on this
    # short log many windows lie outside the models' envelopes.
    windows = [health[part] for health in summary["solver"].values()
               for part in ("burn_in", "recorded")]
    assert out.count(" us/iteration") == sum(w["iterations"] > 0 for w in windows)

    sweep_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg_path),
                 "--model", str(sindyc_path), "--horizons", "2:3",
                 "--seeds", "5", "--out", str(sweep_path)]) == 0
    with open(sweep_path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["horizon"]) for r in rows] == [2, 3]
    printed = re.findall(r"^N=(\d): deviation \d+\.\d{3} %  flow \d+\.\d veh/h  "
                         r"solve \d+\.\d ms  episodes (\d+\.\d) s$",
                         capsys.readouterr().out, re.M)
    assert [(int(n), float(secs)) for n, secs in printed] == [
        (int(r["horizon"]), round(float(r["runtime_s"]), 1)) for r in rows]

    rebuilt_dir = tmp_path / "rebuilt"
    assert main(["report", "--config", str(cfg_path),
                 "--results", str(report_dir / "raw"),
                 "--out", str(rebuilt_dir)]) == 0
    assert (rebuilt_dir / "deviation_table.csv").exists()
    assert not (rebuilt_dir / "raw").exists()


def test_fit_prints_the_columns_it_solved_for(tmp_path, capsys):
    """On three benchmark episodes SINDYc solves all 153 library columns and
    DMDc only the constant and the 16 states and inputs, though its saved
    model has the library's full width."""
    logs = tmp_path / "logs"
    assert main(["collect", "--seeds", "1,2,3", "--out", str(logs)]) == 0
    for method in ("sindyc", "dmdc"):
        assert main(["fit", "--logs", str(logs), "--method", method,
                     "--out", str(tmp_path / f"{method}.json")]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^columns: (\d+), active per state", out, re.M) == ["153", "17"]
    model = sysid.SparseModel.load(tmp_path / "dmdc.json")
    assert model.n_columns == 153


def test_fit_reads_the_config_its_logs_were_collected_on(tmp_path, capsys):
    """``fit --config`` masks SINDYc to the config's road neighbourhoods: on
    two unconnected highways no sensor's terms use the other highway's
    sensor or meter. Logs of another network, the shipped benchmark by
    default or a config with other ids, exit with code 2 and no model."""
    one = _tiny_network()
    two = replace(one, highways=(*one.highways, replace(one.highways[0], name="H2")),
                  ramps=(*one.ramps, RampSpec("H2-R1", "H2", 1, "H2-S1", 1500.0)),
                  horizon_duration_s=600.0)
    cfg_path = tmp_path / "two.cfg"
    cfg_path.write_text(serialize_config(two), encoding="utf-8")
    logs = tmp_path / "logs"
    assert main(["collect", "--config", str(cfg_path), "--seeds", "1,2,3",
                 "--out", str(logs)]) == 0
    model_path = tmp_path / "sindyc.json"
    assert main(["fit", "--config", str(cfg_path), "--logs", str(logs),
                 "--out", str(model_path)]) == 0
    model = sysid.SparseModel.load(model_path)
    exponents = np.array(model.terms)
    for own, other in ((0, 1), (1, 0)):
        crosses = exponents[:, [other, 2 + other]].any(axis=1)
        assert model.coefficients[own].any()
        assert not model.coefficients[own, crosses].any()
    assert model.envelope is not None
    renamed = replace(two, ramps=(two.ramps[0], replace(two.ramps[1], id="H2-RX")))
    renamed_path = tmp_path / "renamed.cfg"
    renamed_path.write_text(serialize_config(renamed), encoding="utf-8")
    capsys.readouterr()
    for config in ([], ["--config", str(renamed_path)]):
        for method in ("sindyc", "dmdc"):
            out = tmp_path / f"refused-{method}.json"
            assert main(["fit", *config, "--logs", str(logs), "--method", method,
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert ("alinea-seed1.csv has sensors ['H1-S1', 'H2-S1'] and ramps "
                    "['H1-R1', 'H2-R1']; the config has sensors" in err), err
            assert not out.exists()


def test_fit_refuses_logs_of_two_networks(tmp_path, capsys):
    """A log directory that mixes a one-ramp and a two-ramp network ends in a
    usage error naming both files' ids, not in a stacking error."""
    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text(serialize_config(_tiny_network()), encoding="utf-8")
    one = _tiny_network()
    two = replace(one, ramps=(*one.ramps, RampSpec("H1-R2", "H1", 2, "H1-S2", 900.0)))
    wide_path = tmp_path / "wide.cfg"
    wide_path.write_text(serialize_config(two), encoding="utf-8")
    logs = tmp_path / "logs"
    assert main(["collect", "--config", str(cfg_path), "--seeds", "1,2",
                 "--out", str(logs)]) == 0
    assert main(["collect", "--config", str(wide_path), "--seeds", "3",
                 "--out", str(logs)]) == 0
    capsys.readouterr()
    for method in ("sindyc", "dmdc"):
        assert main(["fit", "--logs", str(logs), "--method", method,
                     "--out", str(tmp_path / f"{method}.json")]) == 2
        err = capsys.readouterr().err
        assert ("alinea-seed1.csv has sensors ['H1-S1'], ramps ['H1-R1']" in err
                and "alinea-seed3.csv has sensors ['H1-S1', 'H1-S2'], ramps "
                    "['H1-R1', 'H1-R2']" in err), err
        assert not (tmp_path / f"{method}.json").exists()


def _log_dir(path, rows, name="ep", **sidecar):
    """A directory holding one single-sensor, single-ramp episode CSV and its
    JSON sidecar; keyword arguments replace fields of a valid sidecar."""
    path.mkdir()
    (path / f"{name}.csv").write_text(
        "time_s,occ_1,flow_1,speed_1,rate_1\n" + "".join(r + "\n" for r in rows))
    meta = {"seed": 1, "control_step_s": 30.0, "sensor_ids": ["S1"],
            "ramp_ids": ["R1"], "green_seconds": [120.0], "dropped_veh": 0.0,
            "clamp_events": 0, **sidecar}
    (path / f"{name}.json").write_text(json.dumps(meta))
    return path


def _strip_sidecar(sidecar: Path, key=None) -> None:
    """Delete a sidecar, or only its ``key``."""
    if key is None:
        sidecar.unlink()
        return
    meta = json.loads(sidecar.read_text())
    del meta[key]
    sidecar.write_text(json.dumps(meta))


def _bad_benchmark_configs():
    """The shipped benchmark config with one fault each, as YAML by name."""
    text = Path(benchmark_config_path()).read_text()
    docs = {name: yaml.safe_load(text)
            for name in ("older-format", "no-ramp", "shared-sensor", "rng-seed",
                         "cells-count")}
    # The previous format: sensors in their own list, ramps flagged metered.
    older = docs["older-format"]
    older["sensors"] = [{"id": ramp.pop("sensor_id"), "highway": ramp["highway"],
                         "cell": ramp["merge_cell"]} for ramp in older["ramps"]]
    for ramp in older["ramps"]:
        ramp["metered"] = True
    docs["no-ramp"]["ramps"] = []
    ramps = docs["shared-sensor"]["ramps"]
    ramps[1]["sensor_id"] = ramps[0]["sensor_id"]
    # Two more layouts of earlier formats: a config-wide seed, and one cell
    # block with a count standing for a highway of equal cells.
    docs["rng-seed"]["timing"]["rng_seed"] = 0
    highway = docs["cells-count"]["highways"][0]
    highway["cells"] = {"count": len(highway["cells"]), **highway["cells"][0]}
    return {"misspelt-key": text.replace("junctions:", "junction:"),
            **{name: yaml.safe_dump(doc, sort_keys=False)
               for name, doc in docs.items()}}


def test_usage_problems_exit_with_code_two(tmp_path, capsys):
    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text(serialize_config(_tiny_network()), encoding="utf-8")
    rng = np.random.default_rng(0)
    x, u = rng.uniform(0, 30, (100, 1)), rng.uniform(200, 1800, (100, 1))
    model_path = tmp_path / "model.json"
    fit_derivatives(x, u, 0.3 * (15.0 - x)).save(model_path)
    doc = json.loads(model_path.read_text())
    short = [row[:-1] for row in doc["coefficients"]]
    bad_models = {"short-coefficients": dict(doc, coefficients=short)}
    # Values of the wrong JSON type, which coercion would read as 1 or 0.
    for name, value in (("string", "1"), ("float", 1.9), ("bool", True)):
        bad_models[f"{name}-state-dim"] = dict(doc, state_dim=value)
    for name, value in (("string", "0"), ("bool", True)):
        bad_models[f"{name}-coefficient"] = dict(doc, coefficients=[
            [value] + row[1:] for row in doc["coefficients"]])
    # One NaN coefficient: every planner step would fall back.
    nan_model = tmp_path / "nan-model.json"
    nan_model.write_text(json.dumps(dict(doc, coefficients=[
        [float("nan")] + row[1:] for row in doc["coefficients"]])))
    for name, bad in bad_models.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(bad))
    (tmp_path / "not-json.json").write_text("coefficients: [1, 2]\n")
    good = [f"{30 * k},{10 + k},3000,90,{700 + k}" for k in range(20)]
    logs = {
        "short": _log_dir(tmp_path / "short", good[:2]),
        "garbled": _log_dir(tmp_path / "garbled", good[:5] + ["30,x,1,1,1"]),
        "nan": _log_dir(tmp_path / "nan", good[:9] + ["300,nan,3000,90,700"]
                        + good[10:]),
    }
    # 5 usable rows for DMDc's 3 columns (the constant, x1, u1).
    few = _log_dir(tmp_path / "few", good[:7])
    long_sidecar = _log_dir(tmp_path / "long-sidecar", good,
                            green_seconds=[1, 2, 3])
    raw_long = _log_dir(tmp_path / "raw-long", good[:5], name="alinea-seed1",
                        green_seconds=[1, 2, 3])
    raw = _log_dir(tmp_path / "raw", good[:5] + ["30,1,1"], name="alinea-seed1")
    # A CSV whose sidecar is gone, or lacks its drop count, for fit and report.
    sidecar_problems = {}
    for key in (None, "dropped_veh"):
        log_dir = _log_dir(tmp_path / f"log-without-{key}", good)
        _strip_sidecar(log_dir / "ep.json", key)
        raw_dir = _log_dir(tmp_path / f"raw-without-{key}", good[:5],
                           name="alinea-seed1")
        _strip_sidecar(raw_dir / "alinea-seed1.json", key)
        problem = "no sidecar" if key is None else f"missing {key}"
        sidecar_problems[problem] = [
            ["fit", "--logs", str(log_dir), "--out", str(tmp_path / "k.json")],
            ["report", "--config", str(cfg_path), "--results", str(raw_dir),
             "--out", str(tmp_path / "r8")]]
    # A sidecar whose planner steps are not a list of objects, or whose
    # steps lack what a report reads of them or hold it with a wrong type.
    bad_steps = sidecar_problems["solver_steps is not a list of planner steps"] = []
    for i, steps in enumerate(({"iterations": 3}, [1, 2], [{}, "step"], None,
                               [{"time_s": 30.0, "fallback": False}],
                               [{"time_s": 30.0, "fallback": False,
                                 "iterations": "x", "converged": True,
                                 "capped": False, "solve_time_s": 0.01}],
                               # A bool is not a number.
                               [{"time_s": True, "fallback": True}],
                               [{"time_s": 30.0, "fallback": False,
                                 "iterations": True, "converged": True,
                                 "capped": False, "solve_time_s": 0.01}],
                               [{"time_s": 30.0, "fallback": False,
                                 "iterations": 3, "converged": True,
                                 "capped": False, "solve_time_s": True}])):
        log_dir = _log_dir(tmp_path / f"log-steps-{i}", good, solver_steps=steps)
        raw_dir = _log_dir(tmp_path / f"raw-steps-{i}", good[:5],
                           name="alinea-seed1", solver_steps=steps)
        bad_steps += [
            ["fit", "--logs", str(log_dir), "--out", str(tmp_path / "k.json")],
            ["report", "--config", str(cfg_path), "--results", str(raw_dir),
             "--out", str(tmp_path / "r8")]]
    # A sidecar field of the wrong type. A number is a JSON int or float,
    # never a bool or a string, an int is an int, and ids are strings.
    for i, (key, value) in enumerate((
            ("sensor_ids", 5), ("green_seconds", None), ("dropped_veh", None),
            ("control_step_s", [1]), ("seed", [0]), ("clamp_events", None),
            ("seed", 1.9), ("seed", "1"), ("seed", True), ("clamp_events", 2.5),
            ("dropped_veh", True), ("control_step_s", "30"), ("sensor_ids", "S"),
            ("ramp_ids", [1]), ("green_seconds", "1"))):
        log_dir = _log_dir(tmp_path / f"log-bad-{i}", good, **{key: value})
        raw_dir = _log_dir(tmp_path / f"raw-bad-{i}", good[:5],
                           name="alinea-seed1", **{key: value})
        sidecar_problems[f"bad {key} {json.dumps(value)}"] = [
            ["fit", "--logs", str(log_dir), "--out", str(tmp_path / "k.json")],
            ["report", "--config", str(cfg_path), "--results", str(raw_dir),
             "--out", str(tmp_path / "r8")]]
    no_sidecar = _log_dir(tmp_path / "no-sidecar", good[:5], name="alinea-seed1")
    _strip_sidecar(no_sidecar / "alinea-seed1.json")
    list_sidecar = _log_dir(tmp_path / "list-sidecar", good)
    (list_sidecar / "ep.json").write_text("[1, 2, 3]")
    sidecar_case = ["fit", "--logs", str(list_sidecar),
                    "--out", str(tmp_path / "l.json")]
    bad_timing = tmp_path / "bad-timing.cfg"
    bad_timing.write_text("timing: null\nhighways:"
                          + cfg_path.read_text().split("highways:", 1)[1])
    bad_configs = _bad_benchmark_configs()
    for name, body in bad_configs.items():
        (tmp_path / f"{name}.cfg").write_text(body)
    # Episodes of another network: one sensor and one ramp, other ids.
    foreign = _log_dir(tmp_path / "foreign", good[:5], name="alinea-seed1")
    # Models sized for two ramps on the one-ramp network.
    x2, u2 = rng.uniform(0, 30, (100, 2)), rng.uniform(200, 1800, (100, 2))
    wide_model = tmp_path / "wide.json"
    fit_derivatives(x2, u2, 0.3 * (15.0 - x2)).save(wide_model)
    # A cell index that YAML reads as a float.
    float_cell = yaml.safe_load(Path(benchmark_config_path()).read_text())
    float_cell["ramps"][0]["merge_cell"] = float(float_cell["ramps"][0]["merge_cell"])
    (tmp_path / "float-cell.cfg").write_text(yaml.safe_dump(float_cell))
    # A queue capacity that YAML reads as a bool.
    bool_queue = yaml.safe_load(Path(benchmark_config_path()).read_text())
    bool_queue["ramps"][0]["queue_capacity_veh"] = True
    (tmp_path / "bool-queue.cfg").write_text(yaml.safe_dump(bool_queue))
    # A sensor id that YAML reads as an int: refused at load, not collected
    # into episode files that fit and report would then refuse.
    int_sensor = yaml.safe_load(Path(benchmark_config_path()).read_text())
    int_sensor["ramps"][0]["sensor_id"] = 717046
    (tmp_path / "int-sensor.cfg").write_text(yaml.safe_dump(int_sensor))
    taken = tmp_path / "taken.txt"
    taken.write_text("not a report directory\n")
    mismatches = {
        # A path that fails only when it is read or written: an OSError
        # other than a missing file is a usage problem too.
        "Is a directory": [
            ["collect", "--config", str(tmp_path), "--seeds", "1",
             "--out", str(tmp_path / "x7")]],
        "File exists": [
            ["collect", "--config", str(cfg_path), "--seeds", "1",
             "--out", str(taken)]],
        "merge_cell must be an integer, got 2.0": [
            ["collect", "--config", str(tmp_path / "float-cell.cfg"), "--seeds", "1",
             "--out", str(tmp_path / "x5")]],
        "queue_capacity_veh must be a number, got True": [
            ["collect", "--config", str(tmp_path / "bool-queue.cfg"), "--seeds", "1",
             "--out", str(tmp_path / "x6")]],
        "sensor_id must be a string, got 717046": [
            ["collect", "--config", str(tmp_path / "int-sensor.cfg"), "--seeds", "1",
             "--out", str(tmp_path / "x8")]],
        ("sensors ['S1'] and ramps ['R1']; "
         "the config has sensors ['H1-S1'] and ramps ['H1-R1']"): [
            ["report", "--config", str(cfg_path), "--results", str(foreign),
             "--out", str(tmp_path / "r10")]],
        "coefficients must be finite": [
            ["run", "--config", str(cfg_path), "--sindyc-model", str(nan_model),
             "--dmdc-model", str(model_path), "--seeds", "21",
             "--out", str(tmp_path / "r13")]],
        "2 states and 2 inputs, but the network's 1 ramps need 1 of each": [
            ["run", "--config", str(cfg_path), "--sindyc-model", str(wide_model),
             "--dmdc-model", str(model_path), "--seeds", "1",
             "--out", str(tmp_path / "r11")],
            ["run", "--config", str(cfg_path), "--sindyc-model", str(model_path),
             "--dmdc-model", str(wide_model), "--seeds", "1",
             "--out", str(tmp_path / "r12")]],
    }
    cases = [
        ["report", "--config", str(cfg_path), "--results", str(raw),
         "--out", str(tmp_path / "r3")],
        ["report", "--config", str(cfg_path), "--results", str(no_sidecar),
         "--out", str(tmp_path / "r4")],
        *(["fit", "--logs", str(d), "--out", str(tmp_path / f"{name}.json")]
          for name, d in logs.items()),
        ["fit", "--logs", str(logs["nan"]), "--method", "dmdc",
         "--out", str(tmp_path / "nan-dmdc.json")],
        ["sweep", "--config", str(cfg_path), "--model", str(model_path),
         "--horizons", "three:five", "--out", str(tmp_path / "s.csv")],
        *(["run", "--config", str(cfg_path),
           "--sindyc-model", str(tmp_path / f"{name}.json"),
           "--dmdc-model", str(model_path),
           "--seeds", "1", "--out", str(tmp_path / f"r-{name}")]
          for name in bad_models),
        ["sweep", "--config", str(cfg_path),
         "--model", str(tmp_path / "not-json.json"),
         "--horizons", "2", "--out", str(tmp_path / "s2.csv")],
        ["collect", "--config", str(cfg_path), "--seeds", "a,b",
         "--out", str(tmp_path / "x")],
        ["collect", "--config", str(bad_timing), "--seeds", "1",
         "--out", str(tmp_path / "x2")],
        *(["collect", "--config", str(tmp_path / f"{name}.cfg"), "--seeds", "1",
           "--out", str(tmp_path / f"x-{name}")] for name in bad_configs),
        sidecar_case,
        ["fit", "--logs", str(tmp_path / "missing"),
         "--out", str(tmp_path / "m.json")],
        ["run", "--config", str(cfg_path),
         "--sindyc-model", str(tmp_path / "nope.json"),
         "--dmdc-model", str(tmp_path / "nope.json"),
         "--seeds", "1", "--out", str(tmp_path / "r")],
        ["report", "--config", str(cfg_path),
         "--results", str(tmp_path / "empty"),
         "--out", str(tmp_path / "r2")],
        ["run", "--config", str(cfg_path), "--sindyc-model", str(model_path),
         "--dmdc-model", str(model_path), "--seeds", "1", "--horizon", "0",
         "--out", str(tmp_path / "r5")],
        ["sweep", "--config", str(cfg_path), "--model", str(model_path),
         "--horizons", "0:3", "--out", str(tmp_path / "s3.csv")],
        ["sweep", "--config", str(cfg_path), "--model", str(model_path),
         "--horizons", "2", "--seeds", "", "--out", str(tmp_path / "s4.csv")],
        ["collect", "--config", str(cfg_path), "--seeds=-1",
         "--out", str(tmp_path / "x3")],
        ["run", "--config", str(cfg_path), "--sindyc-model", str(model_path),
         "--dmdc-model", str(model_path), "--seeds=-3",
         "--out", str(tmp_path / "r6")],
        ["fit", "--logs", str(few), "--method", "dmdc",
         "--out", str(tmp_path / "few.json")],
        ["fit", "--logs", str(long_sidecar), "--out", str(tmp_path / "g.json")],
        ["report", "--config", str(cfg_path), "--results", str(raw_long),
         "--out", str(tmp_path / "r7")],
    ]
    repeated_seeds = [
        ["run", "--config", str(cfg_path), "--sindyc-model", str(model_path),
         "--dmdc-model", str(model_path), "--seeds", "21,21",
         "--out", str(tmp_path / "r9")],
        ["collect", "--config", str(cfg_path), "--seeds", "1,1",
         "--out", str(tmp_path / "x4")]]
    for argv in cases:
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
    assert main(cases[1]) == 2
    assert "alinea-seed1.json" in capsys.readouterr().err
    assert main(sidecar_case) == 2
    assert "ep.json" in capsys.readouterr().err
    for problem, argvs in [*sidecar_problems.items(),
                           ("only once", repeated_seeds), *mismatches.items()]:
        for argv in argvs:
            assert main(argv) == 2
            assert problem in capsys.readouterr().err, argv
    for name in ("x4", "x5", "x6", "x7", "x8"):
        assert not (tmp_path / name).exists()
    # Both refusals come before any output: no table, no episode.
    for name in ("r10", "r11", "r12", "r13"):
        assert not (tmp_path / name).exists()


def test_fit_refuses_an_unwritable_out_before_it_fits(tmp_path, capsys,
                                                      monkeypatch):
    """An ``--out`` that names a directory, or sits in a directory that does
    not exist, is refused before the logs are read or a model is fitted."""
    calls = []
    for module, name in ((harness, "load_logs"), (sysid, "discover_sindyc"),
                         (sysid, "discover_dmdc")):
        monkeypatch.setattr(module, name,
                            lambda *args, _name=name, **kw: calls.append(_name))
    logs = _log_dir(tmp_path / "logs", [f"{30 * k},{10 + k},3000,90,{700 + k}"
                                        for k in range(20)])
    for method in ("sindyc", "dmdc"):
        for out, problem in ((tmp_path, "is a directory"),
                             (tmp_path / "missing" / "m.json", "does not exist")):
            assert main(["fit", "--logs", str(logs), "--method", method,
                         "--out", str(out)]) == 2
            assert problem in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_unwritable_out_is_refused_before_any_episode(command, tmp_path,
                                                         capsys, monkeypatch):
    """``run`` and ``sweep`` share ``fit``'s ``--out`` check: an output that
    cannot be written is refused before the first episode runs."""
    episodes = []
    monkeypatch.setattr(harness, "run_episode",
                        lambda *args, **kw: episodes.append(args))
    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text(serialize_config(_tiny_network()), encoding="utf-8")
    rng = np.random.default_rng(0)
    x, u = rng.uniform(0, 30, (100, 1)), rng.uniform(200, 1800, (100, 1))
    model_path = tmp_path / "model.json"
    fit_derivatives(x, u, 0.3 * (15.0 - x)).save(model_path)
    taken = tmp_path / "taken.txt"
    taken.write_text("not a report directory\n")
    if command == "run":
        argv = ["run", "--sindyc-model", str(model_path),
                "--dmdc-model", str(model_path), "--seeds", "1"]
        outs = ((taken, "is not a directory"),
                (taken / "report", f"{taken} is not a directory"))
    else:
        argv = ["sweep", "--model", str(model_path), "--horizons", "1"]
        outs = ((tmp_path, "is a directory"),
                (tmp_path / "missing" / "s.csv", "does not exist"))
    for out, problem in outs:
        assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
    assert episodes == []
