"""Spans recorded from outside the program, by wrapping its public functions.

``Tracer.install`` replaces each function listed in ``SPANNED`` with a
wrapper wherever a stringmass module binds it (``from .mufunc import
inner_mu`` makes a second binding in ``dynamics``), and ``uninstall``
puts the originals back.  Spans are kept in memory; the caller writes
them out when the run ends.

The secular functions are called tens of thousands of times per solve,
mostly with scalars from ``brentq``, so they are counted (calls and omega
samples) rather than spanned.
"""

from __future__ import annotations

import functools
import sys
import time

import stats

# (module, attribute) -> span name.  The span name's first dotted part is
# the layer.  Methods are given as "Class.method".
SPANNED = {
    ("model", "calibrate"): "model.calibrate",
    ("spectrum", "detect_threshold"): "spectrum.detect_threshold",
    ("spectrum", "find_negative_modes"): "spectrum.find_negative_modes",
    ("spectrum", "find_positive_modes"): "spectrum.find_positive_modes",
    ("spectrum", "build_spectrum"): "spectrum.build_spectrum",
    ("spectrum", "basis_mode"): "spectrum.basis_mode",
    ("spectrum", "Spectrum.basis"): "spectrum.basis",
    ("mufunc", "robin_residual"): "mufunc.robin_residual",
    ("mufunc", "inner_mu"): "mufunc.inner_mu",
    ("dynamics", "project"): "dynamics.project",
    ("dynamics", "evolve_modes"): "dynamics.evolve_modes",
    ("dynamics", "hamiltonian_modes"): "dynamics.hamiltonian_modes",
    ("fock", "factorization_diagnostic"): "fock.factorization_diagnostic",
    ("cli", "load_config"): "cli.load_config",
    ("cli", "cmd_calibrate"): "cli.cmd_calibrate",
    ("cli", "cmd_spectrum"): "cli.cmd_spectrum",
    ("cli", "cmd_modes"): "cli.cmd_modes",
    ("cli", "cmd_evolve"): "cli.cmd_evolve",
    ("cli", "cmd_fock"): "cli.cmd_fock",
}
COUNTED = {("spectrum", "secular_negative"), ("spectrum", "secular_positive")}
ROOT_FINDERS = {"spectrum.find_negative_modes", "spectrum.find_positive_modes"}
MODULES = ("model", "mufunc", "spectrum", "dynamics", "fock", "cli")


def _roots_returned(name: str, result) -> int:
    if name == "spectrum.find_negative_modes":
        return len(result)
    physical, flagged = result
    return len(physical) + len(flagged)


class Tracer:
    def __init__(self):
        self.spans: list[stats.Span] = []
        self.op = 0
        self.active = False  # spans are recorded only while an operation runs
        self.secular_points = 0
        self.secular_calls = 0
        self.roots = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def record(self, name: str, start: float, end: float, failed: bool = False,
               parent: int | None = None) -> int:
        """Append a span measured by the caller (e.g. a child process's import)."""
        sid = self._next_id
        self._next_id += 1
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append(stats.Span(sid, parent, self.op, name, start, end, failed))
        return sid

    def _spanned(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append(stats.Span(sid, parent, self.op, name,
                                             start, end, failed))
            if name in ROOT_FINDERS:
                self.roots += _roots_returned(name, result)
            return result

        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(omega, params):
            if not self.active:
                return fn(omega, params)
            self.secular_calls += 1
            self.secular_points += getattr(omega, "size", 1)
            return fn(omega, params)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function that the loaded package still defines."""
        mods = {m: sys.modules[f"stringmass.{m}"] for m in MODULES
                if f"stringmass.{m}" in sys.modules}
        mods["package"] = sys.modules["stringmass"]
        for key in list(SPANNED) + sorted(COUNTED):
            original = _resolve(mods, key)
            if original is None:
                continue
            wrapper = (self._spanned(SPANNED[key], original) if key in SPANNED
                       else self._counted(original))
            home, attr = key
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch(getattr(mods[home], cls_name), meth, wrapper)
                continue
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
            commands = getattr(mods.get("cli"), "_COMMANDS", {})
            for cmd, (fn, code) in list(commands.items()):
                if fn is original:
                    commands[cmd] = (wrapper, code)
                    self._patches.append((commands, cmd, (fn, code)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    def to_json(self) -> dict:
        return {
            "spans": [[s.id, s.parent, s.op, s.name, s.start, s.end, s.failed]
                      for s in self.spans],
            "secular_points": self.secular_points,
            "secular_calls": self.secular_calls,
            "roots": self.roots,
        }

    def merge(self, child: dict, op: int) -> None:
        """Add the spans a child process recorded, renumbered, under ``op``."""
        offset = self._next_id
        for sid, parent, _, name, start, end, failed in child["spans"]:
            self.spans.append(stats.Span(
                sid + offset, None if parent is None else parent + offset,
                op, name, start, end, failed))
            self._next_id = max(self._next_id, sid + offset + 1)
        self.secular_points += child["secular_points"]
        self.secular_calls += child["secular_calls"]
        self.roots += child["roots"]


def _resolve(mods: dict, key: tuple[str, str]):
    home, attr = key
    obj = mods.get(home)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj
