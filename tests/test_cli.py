import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stringmass import cli
from stringmass.errors import StringMassError


def write_config(path, **overrides):
    cfg = {
        "params": {"mu0": 1.0, "mu1": 1.0, "w2": 1.0, "w02": 2.0, "w12": 2.0},
        "grid": {"n_grid": 256},
        "n_modes": 12,
        "evolve": {"t_end": 0.2, "dt": 1e-3, "snapshot_every": 50},
        "fock": {"n_max": 150},
        "seed": 7,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path / "config.json")


def _run(config_path, command, out, seed=None):
    argv = [command, "--config", str(config_path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return cli.main(argv)


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command",
                         ["calibrate", "spectrum", "modes", "evolve", "fock"])
def test_determinism_byte_identical(command, config_path, tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert _run(config_path, command, out1) == 0
    assert _run(config_path, command, out2) == 0
    files1, files2 = _tree_bytes(out1), _tree_bytes(out2)
    assert files1.keys() == files2.keys() and len(files1) > 0
    for name in files1:
        assert files1[name] == files2[name], f"{name} differs between runs"


def test_calibrate_resonance(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       params={"mu0": 2.0, "mu1": 3.0, "w2": 1.0,
                               "w02": 1.0, "w12": 1.0})
    out = tmp_path / "out"
    assert _run(cfg, "calibrate", out) == 0
    payload = json.loads((out / "calibration.json").read_text())
    assert payload["alpha"] == [2.0, 3.0]
    assert payload["A"] == [0.0, 0.0]
    assert max(abs(r) for r in payload["cubic_residual"]) <= 1e-12


def test_calibrate_detuned(config_path, tmp_path):
    out = tmp_path / "out"
    assert _run(config_path, "calibrate", out) == 0
    payload = json.loads((out / "calibration.json").read_text())
    assert payload["alpha"][0] == pytest.approx(1.7549, abs=1e-4)
    assert payload["branch"] == [-1, -1]
    assert "config_hash" in payload


def test_missing_key_exits_1_without_output(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"params": {"mu1": 1.0, "w2": 1.0,
                                          "w02": 1.0, "w12": 1.0}}))
    out = tmp_path / "out"
    assert cli.main(["calibrate", "--config", str(cfg),
                     "--out", str(out)]) == 1
    assert not out.exists()
    assert "malformed config" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert cli.main(["calibrate", "--config", str(cfg)]) == 1


def test_invalid_values_exit_1(tmp_path):
    cfg = write_config(tmp_path / "c.json", n_modes=0)
    assert cli.main(["calibrate", "--config", str(cfg)]) == 1
    cfg = write_config(tmp_path / "c2.json", evolve={"dt": -1.0})
    assert cli.main(["calibrate", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("field", ["mu0", "mu1", "w2", "w02", "w12"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan"), "-inf"])
def test_non_finite_params_exit_1(field, bad, tmp_path, capsys):
    params = {"mu0": 1.0, "mu1": 1.0, "w2": 1.0, "w02": 2.0, "w12": 2.0,
              field: bad}
    cfg = write_config(tmp_path / "c.json", params=params)
    out = tmp_path / "out"
    assert _run(cfg, "calibrate", out) == 1
    assert not out.exists()
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("section, bad", [
    (None, {"n_mode": 12}),
    ("params", {"mu2": 1.0}),
    ("grid", {"ngrid": 256}),
    ("evolve", {"t_stop": 1.0}),
    ("fock", {"nmax": 150}),
    ("grid", 256),
])
def test_unknown_config_keys_exit_1(section, bad, tmp_path, capsys):
    cfg = json.loads(write_config(tmp_path / "ok.json").read_text())
    if section is None:
        cfg.update(bad)
    elif isinstance(bad, dict):
        cfg[section].update(bad)
    else:
        cfg[section] = bad
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "malformed config" in err
    assert (section or "config") in err


def test_spectrum_csv(config_path, tmp_path):
    out = tmp_path / "out"
    assert _run(config_path, "spectrum", out) == 0
    lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0].startswith("# config=")
    assert lines[1] == "n,class,omega,lambda,g,asymptote_error"
    rows = [ln.split(",") for ln in lines[2:]]
    neg = [r for r in rows if r[1] == "neg"]
    assert len(neg) == 12
    errs = [float(r[5]) for r in neg]
    # asymptote error shrinks with mode number
    assert errs[-1] < errs[2]


def test_modes_files(config_path, tmp_path):
    out = tmp_path / "out"
    assert _run(config_path, "modes", out) == 0
    files = sorted((out / "modes").glob("mode_*.csv"))
    assert len(files) >= 12
    head = files[0].read_text().split("\n")
    assert head[0].startswith("# config=")
    assert head[1].startswith("# atom0=") and head[2].startswith("# atom1=")
    assert head[3] == "x,value"


def test_evolve_energy_constant(config_path, tmp_path):
    out = tmp_path / "out"
    assert _run(config_path, "evolve", out) == 0
    lines = (out / "evolve.csv").read_text().strip().split("\n")
    assert lines[1] == "t,x,u,udot,energy"
    energies = {ln.split(",")[4] for ln in lines[2:]}
    assert len(energies) == 1  # byte-identical energy on every row
    times = sorted({float(ln.split(",")[0]) for ln in lines[2:]})
    assert times[0] == 0.0 and len(times) > 1


def test_evolve_seed_changes_output(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run(config_path, "evolve", out1, seed=1) == 0
    assert _run(config_path, "evolve", out2, seed=2) == 0
    assert (out1 / "evolve.csv").read_bytes() != \
        (out2 / "evolve.csv").read_bytes()


def test_fock_report(config_path, tmp_path):
    out = tmp_path / "out"
    assert _run(config_path, "fock", out) == 0
    payload = json.loads((out / "fock.json").read_text())
    assert payload["verdict"] == "DIVERGENT"
    assert len(payload["coefficients"]) == 150
    sums = payload["partial_sums"]
    assert all(b > a for a, b in zip(sums, sums[1:]))
    assert payload["expected_slope"] > 0


def test_module_error_maps_to_exit_code(config_path, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise StringMassError("synthetic failure")

    monkeypatch.setattr(cli.dynamics, "evolve_modes", boom)
    assert _run(config_path, "evolve", tmp_path / "out") == 4
    monkeypatch.setattr(cli.fock, "factorization_diagnostic", boom)
    assert _run(config_path, "fock", tmp_path / "out2") == 5
    monkeypatch.setattr(cli.spectrum, "build_spectrum", boom)
    assert _run(config_path, "spectrum", tmp_path / "out3") == 3


def test_import_loads_no_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, stringmass; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
