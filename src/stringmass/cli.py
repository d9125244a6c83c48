"""Command-line front end producing deterministic CSV/JSON artifacts.

Subcommands: calibrate | spectrum | modes | evolve | fock.  A single JSON
config file drives every command; outputs are byte-stable for identical
config + seed and each file records the config hash.

Exit codes: 1 malformed config, 2 calibration failure, 3 spectrum,
4 dynamics, 5 fock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, fock, model, mufunc, spectrum
from .errors import StringMassError

_FMT = "{:.17g}"


@dataclass
class RunConfig:
    params: model.ModelParams
    grid: mufunc.GridSpec
    n_modes: int
    evolve_t_end: float
    evolve_dt: float
    snapshot_every: int
    fock_n_max: int
    output_dir: Path
    seed: int
    config_hash: str


# Known keys of the config root and of each section.
_KNOWN_KEYS = {
    "config": {"params", "grid", "n_modes", "evolve", "fock", "output_dir", "seed"},
    "params": {"mu0", "mu1", "w2", "w02", "w12"},
    "grid": {"n_grid"},
    "evolve": {"t_end", "dt", "snapshot_every"},
    "fock": {"n_max"},
}


def _check_keys(raw) -> None:
    """Raise ValueError if the root or a section is not an object or has a
    key outside :data:`_KNOWN_KEYS`."""
    for where, known in _KNOWN_KEYS.items():
        obj = raw if where == "config" else raw.get(where, {})
        if not isinstance(obj, dict):
            raise ValueError(f"{where} must be an object")
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def load_config(path: str, out_override: str | None = None,
                seed_override: int | None = None) -> RunConfig:
    """Parse and fully validate the config; raises ValueError on any defect."""
    with open(path) as fh:
        raw = json.load(fh)
    _check_keys(raw)
    p = raw["params"]
    params = model.ModelParams(mu0=float(p["mu0"]), mu1=float(p["mu1"]),
                               w2=float(p["w2"]), w02=float(p["w02"]),
                               w12=float(p["w12"]))
    grid = mufunc.GridSpec(n_grid=int(raw.get("grid", {}).get("n_grid", 2048)))
    n_modes = int(raw.get("n_modes", 64))
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    ev = raw.get("evolve", {})
    t_end = float(ev.get("t_end", 1.0))
    dt = float(ev.get("dt", 1e-4))
    snap = int(ev.get("snapshot_every", 10))
    if dt <= 0 or t_end < 0 or snap < 1:
        raise ValueError("invalid evolve section")
    n_max = int(raw.get("fock", {}).get("n_max", 500))
    if n_max < 100:
        raise ValueError("fock.n_max must be >= 100")
    seed = int(raw.get("seed", 0)) if seed_override is None else seed_override
    out = Path(out_override if out_override is not None
               else raw.get("output_dir", "out"))
    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True).encode()
        + f"|seed={seed}".encode()).hexdigest()[:16]
    return RunConfig(params=params, grid=grid, n_modes=n_modes,
                     evolve_t_end=t_end, evolve_dt=dt, snapshot_every=snap,
                     fock_n_max=n_max, output_dir=out, seed=seed,
                     config_hash=digest)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def cmd_calibrate(cfg: RunConfig) -> int:
    cal = model.calibrate(cfg.params)
    resid = [model.cubic_residual(cal.alpha(j), cfg.params.mu(j),
                                  cfg.params.delta(j)) for j in (0, 1)]
    a_resid = [cal.a(j) * (1.0 - cal.alpha(j) * cfg.params.mu(j)
                           * cfg.params.delta(j))
               - cfg.params.mu(j) * cfg.params.delta(j) for j in (0, 1)]
    payload = {
        "config_hash": cfg.config_hash,
        "alpha": [cal.alpha0, cal.alpha1],
        "A": [cal.a0, cal.a1],
        "C": [cal.c0, cal.c1],
        "branch": [cal.branch0, cal.branch1],
        "cubic_residual": resid,
        "coupling_residual": a_resid,
    }
    _write(cfg.output_dir / "calibration.json",
           json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _build_spectrum(cfg: RunConfig, n_neg: int) -> spectrum.Spectrum:
    cal = model.calibrate(cfg.params)
    return spectrum.build_spectrum(cfg.params, cal, n_neg=n_neg)


def cmd_spectrum(cfg: RunConfig) -> int:
    spec = _build_spectrum(cfg, cfg.n_modes)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    spectrum.export_csv(spec, cfg.output_dir / "spectrum.csv",
                        header=[f"# config={cfg.config_hash}"])
    return 0


def cmd_modes(cfg: RunConfig) -> int:
    spec = _build_spectrum(cfg, cfg.n_modes)
    out = cfg.output_dir / "modes"
    out.mkdir(parents=True, exist_ok=True)
    for m, y in zip(spec.modes, spec.basis(cfg.grid)):
        mufunc.save_csv(y, out / f"mode_{m.n}.csv",
                        header=[f"# config={cfg.config_hash}"])
    return 0


def initial_coefficients(spec: spectrum.Spectrum, seed: int,
                         n_active: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic smooth Cauchy data: decaying random mode superposition."""
    rng = np.random.default_rng(seed)
    n = min(n_active, len(spec.modes))
    decay = 1.0 / (1.0 + np.arange(n)) ** 2
    q = np.zeros(len(spec.modes))
    p = np.zeros(len(spec.modes))
    q[:n] = rng.standard_normal(n) * decay
    p[:n] = rng.standard_normal(n) * decay
    return q, p


def cmd_evolve(cfg: RunConfig) -> int:
    spec = _build_spectrum(cfg, cfg.n_modes)
    q, p = initial_coefficients(spec, cfg.seed)
    coeffs = dynamics.ModeCoefficients(q=q, p=p, spectrum=spec,
                                       n_grid=cfg.grid.n_grid)
    n_snap = int(round(cfg.evolve_t_end / cfg.evolve_dt)) // cfg.snapshot_every
    times = [k * cfg.snapshot_every * cfg.evolve_dt for k in range(n_snap + 1)]
    lines = [f"# config={cfg.config_hash}", "t,x,u,udot,energy"]
    for t in times:
        state = dynamics.evolve_modes(coeffs, t)
        energy = dynamics.hamiltonian_modes(
            dynamics.ModeCoefficients(
                q=coeffs.q, p=coeffs.p, spectrum=spec, n_grid=cfg.grid.n_grid))
        # energy is time independent by construction; recorded per snapshot
        for xi, ui, vi in zip(state.Q.x, state.Q.values, state.P.values):
            lines.append(",".join([_FMT.format(t), _FMT.format(xi),
                                   _FMT.format(ui), _FMT.format(vi),
                                   _FMT.format(energy)]))
    _write(cfg.output_dir / "evolve.csv", "\n".join(lines) + "\n")
    return 0


def cmd_fock(cfg: RunConfig) -> int:
    spec = _build_spectrum(cfg, cfg.fock_n_max)
    report = fock.factorization_diagnostic(spec, spec.cal, cfg.fock_n_max)
    payload = json.loads(report.to_json())
    payload["config_hash"] = cfg.config_hash
    _write(cfg.output_dir / "fock.json",
           json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


_COMMANDS = {
    "calibrate": (cmd_calibrate, 2),
    "spectrum": (cmd_spectrum, 3),
    "modes": (cmd_modes, 3),
    "evolve": (cmd_evolve, 4),
    "fock": (cmd_fock, 5),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stringmass",
        description="string/point-mass spectral and Fock-space computations")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.out, args.seed)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as e:
        print(f"error: malformed config: {e}", file=sys.stderr)
        return 1

    fn, err_code = _COMMANDS[args.command]
    try:
        return fn(cfg)
    except StringMassError as e:
        print(f"error: {e}", file=sys.stderr)
        return err_code


if __name__ == "__main__":
    sys.exit(main())
