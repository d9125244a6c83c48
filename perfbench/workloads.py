"""The workloads: inputs made from the seed, one operation, its check.

Every workload is a closed loop with one client.  A run is a sequence of
rounds; ``round(r)`` returns the operations of round ``r``, made from
(seed, r) only, so the traced run can replay round 0 exactly.

numpy and stringmass are imported inside ``setup`` because their import
is part of the measured set-up time.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# The README example config.
README_CONFIG = {
    "params": {"mu0": 1.5, "mu1": 0.8, "w2": 2.0, "w02": 2.5, "w12": 1.2},
    "grid": {"n_grid": 2048},
    "n_modes": 64,
    "evolve": {"t_end": 1.0, "dt": 1e-4, "snapshot_every": 10},
    "fock": {"n_max": 500},
    "output_dir": "out",
    "seed": 0,
}
# A failure by a mechanism ROADMAP item 2 documents counts as failed but
# does not make the run incorrect.  A random draw's failure is of that kind
# when its reason starts with KNOWN_DEFECT, which ``Spectra.check`` writes
# only for one lost near-degenerate exponential pair (relative gap under
# PAIR_GAP; the pairs recorded so far are 2.185/2.187, 6.820/6.833 and
# 9.511/9.514).  Each repro is known only with the reason recorded for it.
KNOWN_DEFECT = "known defect (ROADMAP item 2): "
PAIR_GAP = 1e-2

# ROADMAP item 2, as (params, the reason each fails with at this commit):
# the exponential pair at omega ~ 9.51242 / 9.51256 is missed by the scan,
# and the trivial root near the zero-mode locus raises a raw ValueError.
REPROS = {
    "repro-lost-bound-states": (
        (1.0, 1.0, 100.0, 0.0, 0.0),
        KNOWN_DEFECT + "lost 2 exponential-family modes at Omega^2 [9.511037, 9.513709] "),
    "repro-zero-mode-locus": (
        (1.0, 1.0, 1.0, 1.5, 1.0 / 1.5 + 1e-9),
        "raised ValueError: math domain error"),
}

# Oracle comparison: the lowest K_CHECK squared frequencies against the
# pencil on the finest of ORACLE_GRIDS.  Its discretisation error is taken as
# the largest change between consecutive grids: for light boundary masses the
# pencil is not yet in its asymptotic range at these sizes (its values are not
# monotone in n_grid), so a two-grid estimate can undershoot.
K_CHECK = 6
ORACLE_GRIDS = (400, 800, 1600)

MODAL_TIMES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
MODAL_ACTIVE = 8
GRAM_TOL = 1e-6


@dataclass
class Op:
    label: str   # size class or command; repros carry their own label
    arg: object
    known_reason: str | None = None  # a failure whose reason starts with this is a known defect
    detail: str = ""  # appended to a failure reason to identify the input


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("stringmass_oracles", root / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


class Spectra:
    """calibrate + build_spectrum on seeded parameter draws (in-process)."""

    name = "spectra"
    in_process = True
    unit_items = "eigenpairs"
    # Per round: 16 at n_neg 64 (2 of them the repros), 3 at 500, 1 at 5000,
    # i.e. 80/15/5 %, so p50 lies inside the 64 class and p90 inside the 500 class.
    MIX = ((64, 14), (500, 3), (5000, 1))

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed = root, seed
        self.oracles = None
        self._oracle_cache: dict = {}

    def setup(self) -> None:
        import stringmass
        self.sm = stringmass
        self.round(0)

    def round(self, r: int) -> list[Op]:
        import numpy as np
        rng = np.random.default_rng([self.seed, r])
        ops = [Op(label, (params, 64), known_reason=reason)
               for label, (params, reason) in REPROS.items()]
        for n_neg, count in self.MIX:
            for _ in range(count):
                params = (_log_uniform(rng, 0.05, 20), _log_uniform(rng, 0.05, 20),
                          _log_uniform(rng, 0.1, 100), _log_uniform(rng, 0.01, 100),
                          _log_uniform(rng, 0.01, 100))
                ops.append(Op(f"n_neg={n_neg}", (params, n_neg), known_reason=KNOWN_DEFECT))
        for op in ops:
            op.detail = "ModelParams({})".format(", ".join(f"{p:.6g}" for p in op.arg[0]))
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op: Op, tracer=None):
        params, n_neg = op.arg
        p = self.sm.ModelParams(*params)
        cal = self.sm.calibrate(p)
        return self.sm.build_spectrum(p, cal, n_neg=n_neg)

    def items(self, op: Op, spec) -> int:
        return len(spec.modes)

    def _oracle(self, params: tuple) -> tuple[list[float], ...]:
        if params not in self._oracle_cache:
            if self.oracles is None:  # loaded at the first check, after set-up timing
                self.oracles = _load_oracles(self.root)
            p = self.sm.ModelParams(*params)
            self._oracle_cache[params] = tuple(
                sorted(self.oracles.matrix_frequencies(p, n, k=K_CHECK + 2))
                for n in ORACLE_GRIDS)
        return self._oracle_cache[params]

    def check(self, op: Op, spec) -> str | None:
        params, n_neg = op.arg
        n_osc = sum(1 for m in spec.modes if m.kind == "neg")
        if n_osc != n_neg:
            return f"{n_osc} oscillatory modes, asked for {n_neg}"
        w2 = params[2]
        got = sorted(w2 - m.lam for m in spec.modes)
        ladder = self._oracle(params)
        fine = ladder[-1]
        tol = [max(abs(a[i] - b[i]) for a, b in zip(ladder, ladder[1:]))
               + 1e-9 * max(1.0, abs(fine[i])) for i in range(len(fine))]
        # exponential-family modes (Omega^2 < w2) of the oracle the library lacks
        lost = [i for i, f in enumerate(fine)
                if f < w2 and not any(abs(g - f) <= tol[i] for g in got)]
        kept = [i for i in range(len(fine)) if i not in lost][:K_CHECK]
        for j, i in enumerate(kept):
            if j >= len(got) or abs(got[j] - fine[i]) > tol[i]:
                return (f"mode count or frequency off: lowest Omega^2 "
                        f"{[round(g, 6) for g in got[:K_CHECK]]}, matrix oracle "
                        f"{[round(float(f), 6) for f in fine[:K_CHECK]]} +- "
                        f"{max(tol[:K_CHECK]):.2g}")
        if lost:
            known = KNOWN_DEFECT if _one_pair(fine, lost) else ""
            return (f"{known}lost {len(lost)} exponential-family modes at Omega^2 "
                    f"{[round(float(fine[i]), 6) for i in lost]} (w2 = {w2:.6g}); "
                    f"{sum(1 for g in got if g < w2)} found, matrix oracle has "
                    f"{sum(1 for f in fine if f < w2)}")
        return None


def _one_pair(fine: list[float], lost: list[int]) -> bool:
    """Whether the lost modes are one or both members of one near-degenerate pair."""
    def close(i: int, j: int) -> bool:
        return 0 <= j < len(fine) and abs(fine[j] - fine[i]) < PAIR_GAP * abs(fine[i])

    if len(lost) == 2:
        return lost[1] == lost[0] + 1 and close(lost[0], lost[1])
    return len(lost) == 1 and (close(lost[0], lost[0] - 1) or close(lost[0], lost[0] + 1))


class Modal:
    """Basis, projection, evolution and energy on pre-solved spectra (in-process)."""

    name = "modal"
    in_process = True
    unit_items = "snapshots"
    # Per round: 8 ops at (64 modes, n_grid 2048), 2 at (500, 8192), 80/20 %,
    # so p50 lies inside the small class and p90 inside the large one.
    MIX = (((64, 2048), 8), ((500, 8192), 2))

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        import stringmass
        self.sm = stringmass
        p = stringmass.ModelParams(**README_CONFIG["params"])
        cal = stringmass.calibrate(p)
        self.solved = {}
        self.weights = {}
        self.ref = {}
        for (n_modes, n_grid), _ in self.MIX:
            spec = stringmass.build_spectrum(p, cal, n_neg=n_modes)
            grid = stringmass.GridSpec(n_grid)
            self.solved[n_modes, n_grid] = spec
            self.ref[n_modes, n_grid] = [stringmass.basis_mode(m, p, cal, grid)
                                         for m in spec.modes[:MODAL_ACTIVE]]
            self.weights[n_grid] = _simpson_weights(n_grid)
        self.round(0)

    def round(self, r: int) -> list[Op]:
        import numpy as np
        rng = np.random.default_rng([self.seed, r])
        decay = 1.0 / (1.0 + np.arange(MODAL_ACTIVE)) ** 2
        ops = []
        for size, count in self.MIX:
            for _ in range(count):
                q = rng.standard_normal(MODAL_ACTIVE) * decay
                p = rng.standard_normal(MODAL_ACTIVE) * decay
                ops.append(Op(f"modes={size[0]},n_grid={size[1]}",
                              (size, self._combine(size, q), self._combine(size, p), q, p)))
        return [ops[i] for i in rng.permutation(len(ops))]

    def _combine(self, size, c):
        """Smooth Robin-domain data: a finite combination of basis functions."""
        import numpy as np
        basis = self.ref[size]
        return self.sm.MuFunction(
            np.sum([ci * y.values for ci, y in zip(c, basis)], axis=0),
            float(sum(ci * y.v0 for ci, y in zip(c, basis))),
            float(sum(ci * y.v1 for ci, y in zip(c, basis))))

    def run(self, op: Op, tracer=None):
        size, Q, P, _, _ = op.arg
        solved = self.solved[size]
        spec = self.sm.Spectrum(params=solved.params, cal=solved.cal,
                                modes=solved.modes, n_max=solved.n_max)
        coeffs = self.sm.project(self.sm.CauchyData(Q=Q, P=P), spec)
        states = [self.sm.evolve_modes(coeffs, t) for t in MODAL_TIMES]
        energy = self.sm.hamiltonian_modes(coeffs)
        return spec, coeffs, states, energy

    def items(self, op: Op, result) -> int:
        return len(result[2])

    def check(self, op: Op, result) -> str | None:
        import numpy as np
        size, Q, P, cq, cp = op.arg
        spec, coeffs, states, energy = result
        n_grid = size[1]
        cal = spec.cal
        basis = spec.basis(self.sm.GridSpec(n_grid))
        n = len(basis)
        B = np.stack([y.values for y in basis])
        a0 = np.array([y.v0 for y in basis])
        a1 = np.array([y.v1 for y in basis])
        w = self.weights[n_grid]

        def gram_times(V):
            """<Y_m, sum_k V_k Y_k>_mu for every m, in the benchmark's own quadrature."""
            return B @ (w[:, None] * (B.T @ V)) + cal.alpha0 * np.outer(a0, a0 @ V) \
                + cal.alpha1 * np.outer(a1, a1 @ V)

        def proj(F):
            return B @ (w * F.values) + cal.alpha0 * a0 * F.v0 + cal.alpha1 * a1 * F.v1

        # Gram defect: exact on the columns the data lives on, and a random
        # +-1 probe of all columns (|E v| <= n * max|E|).
        eye = np.eye(n)
        defect = float(np.max(np.abs(gram_times(eye[:, :MODAL_ACTIVE]) - eye[:, :MODAL_ACTIVE])))
        v = np.random.default_rng(n).choice([-1.0, 1.0], size=(n, 1))
        probe = float(np.max(np.abs(gram_times(v) - v)))
        if not (defect <= GRAM_TOL and probe <= n * GRAM_TOL):
            return f"Gram defect {defect:.3g} (probe {probe:.3g}) > {GRAM_TOL}"
        # The data is sum_m c_m Y_m over the active modes, so with
        # <Y_m,Y_n> = delta_mn + E_mn, projection followed by re-synthesis
        # is off by sum_n (E c)_n Y_n: at most n * defect * |c|_1 * max|Y|.
        scale = max(float(np.max(np.abs(B))), float(np.max(np.abs(a0))),
                    float(np.max(np.abs(a1))))
        for got, want, c, what in ((states[0].Q, Q, cq, "Q"), (states[0].P, P, cp, "P")):
            err = max(float(np.max(np.abs(got.values - want.values))),
                      abs(got.v0 - want.v0), abs(got.v1 - want.v1))
            bound = (n * defect + 1e-12) * float(np.sum(np.abs(c))) * scale
            if err > bound:
                return f"t=0 reconstruction of {what} off by {err:.3g} > {bound:.3g}"
        # Re-projecting a snapshot perturbs each coefficient by the same kind
        # of term, so its energy moves by about 2 * n * defect relatively.
        tol = 2 * (n * defect + 1e-12) * energy
        for t, st in zip(MODAL_TIMES, states):
            e_t = self.sm.hamiltonian_modes(self.sm.ModeCoefficients(
                q=proj(st.Q), p=proj(st.P), spectrum=spec, n_grid=n_grid))
            if abs(e_t - energy) > tol:
                return f"energy at t={t} is {e_t!r}, from the projection {energy!r}"
        return None


def _simpson_weights(n_grid: int):
    import numpy as np
    h = 1.0 / n_grid
    w = np.full(n_grid + 1, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[0] = w[-1] = h / 3.0
    return w


def config_hash(raw: dict, seed: int) -> str:
    """The hash the CLI stamps on its outputs: sorted-key config JSON plus seed."""
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()
                          + f"|seed={seed}".encode()).hexdigest()[:16]


class CliShort:
    """calibrate, spectrum, modes, fock round-robin on the README config,
    one ``stringmass`` child per operation, started through ``cli_child.py``."""

    name = "cli-short"
    in_process = False
    unit_items = "commands"
    COMMANDS = ("calibrate", "spectrum", "modes", "fock")

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.raw = README_CONFIG
        self.hash = config_hash(self.raw, seed)

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cfg_path = self.workdir / "config.json"
        self.cfg_path.write_text(json.dumps(self.raw, indent=2))
        warm = Op("calibrate", "calibrate")
        reason = self.check(warm, self.run(warm))
        self.finish(warm, None)
        if reason:
            raise RuntimeError(f"warm-up child failed: {reason}")

    def round(self, r: int) -> list[Op]:
        return [Op(cmd, cmd) for cmd in self.COMMANDS]

    def run(self, op: Op, tracer=None):
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
               str(self.trace_path) if tracer else "-", op.arg, "--config",
               str(self.cfg_path), "--out", str(self.workdir / "out"), "--seed", str(self.seed)]
        return subprocess.run(cmd, cwd=self.workdir,
                              capture_output=True, text=True, timeout=170)

    @property
    def trace_path(self) -> Path:
        return self.workdir / "child-trace.json"

    def finish(self, op: Op, tracer) -> None:
        """After the check, untimed: take the child's spans and clear its output."""
        if tracer is not None and self.trace_path.is_file():
            tracer.merge(json.loads(self.trace_path.read_text()), tracer.op)
            self.trace_path.unlink()
        shutil.rmtree(self.workdir / "out", ignore_errors=True)

    def expected_files(self, command: str) -> list[str]:
        if command == "modes":
            return [f"modes/mode_{n}.csv" for n in range(1, self.raw["n_modes"] + 1)]
        return {"calibrate": ["calibration.json"], "spectrum": ["spectrum.csv"],
                "fock": ["fock.json"]}[command]

    def items(self, op: Op, proc) -> int:
        return 1

    def out_bytes(self) -> int:
        """Bytes the last command wrote under its output directory."""
        out = self.workdir / "out"
        return sum(f.stat().st_size for f in out.rglob("*") if f.is_file())

    def check(self, op: Op, proc) -> str | None:
        out = self.workdir / "out"
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        if proc.stderr:
            return f"stderr not empty: {proc.stderr.strip()[-300:]}"
        for rel in self.expected_files(op.arg):
            path = out / rel
            if not path.is_file():
                return f"missing {rel}"
            if self.hash.encode() not in path.read_bytes():
                return f"{rel} does not carry config hash {self.hash}"
        return None


WORKLOADS = {w.name: w for w in (Spectra, Modal, CliShort)}
