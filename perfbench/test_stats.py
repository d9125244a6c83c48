"""Tests of the benchmark's own arithmetic, on synthetic spans and timings.

    python -m pytest perfbench -q
"""

import sys
import types

import pytest

import run
import stats
import tracing
import workloads


def test_percentiles_and_tail_counts():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 90) == pytest.approx(90.1)
    assert stats.tail_count(values, 90) == 10
    assert stats.tail_count(values, 50) == 50
    with pytest.raises(ValueError):
        stats.percentile([1.0], 50)
    with pytest.raises(ValueError):
        stats.percentile(values, 100)


def _span(i, parent, start, end, name="spectrum.x", failed=False, op=0):
    return stats.Span(i, parent, op, name, start, end, failed)


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(0, None, 0.0, 10.0, "spectrum.build_spectrum"),
        _span(1, 0, 1.0, 4.0, "spectrum.find_negative_modes"),
        _span(2, 1, 2.0, 3.0, "spectrum.detect_threshold"),  # grandchild
        _span(3, 0, 5.0, 6.0, "model.calibrate"),
    ]
    self_s = stats.self_times(spans)
    assert self_s[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_s[1] == pytest.approx(3.0 - 1.0)
    assert self_s[2] == pytest.approx(1.0)
    assert self_s[3] == pytest.approx(1.0)
    # self times partition the root span
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_self_time_clips_and_merges_overlapping_children():
    spans = [_span(0, None, 0.0, 4.0), _span(1, 0, 1.0, 3.0), _span(2, 0, 2.0, 5.0)]
    assert stats.self_times(spans)[0] == pytest.approx(1.0)


def test_tally_counts_failure_where_it_arose():
    spans = [
        _span(0, None, 0.0, 3.0, "spectrum.build_spectrum", failed=True),
        _span(1, 0, 0.5, 1.0, "model.calibrate"),
        _span(2, 0, 1.0, 2.0, "spectrum.find_negative_modes", failed=True),
        _span(3, None, 3.0, 4.0, "spectrum.build_spectrum", failed=True),
    ]
    assert stats.failure_origins(spans) == {2, 3}
    by_layer = stats.tally(spans, lambda s: s.layer)
    assert by_layer["spectrum"].calls == 3
    assert by_layer["spectrum"].fail == 2
    assert by_layer["spectrum"].self_s == pytest.approx(2.5 - 0.0 + 1.0 + 1.0 - 1.0)
    assert by_layer["model"].fail == 0


def test_fail_ratio_counts_raised_and_failed_checks():
    assert stats.fail_ratio(20, 1, 3) == pytest.approx(0.2)
    assert stats.fail_ratio(5, 0, 0) == 0.0
    with pytest.raises(ValueError):
        stats.fail_ratio(0, 0, 0)
    with pytest.raises(ValueError):
        stats.fail_ratio(2, 2, 1)


def test_points_per_root():
    assert stats.points_per_root(81_940 + 10_001, 66) == pytest.approx(1393.05, rel=1e-4)
    assert stats.points_per_root(10, 0) == 0.0


class FakeWorkload:
    """Operations that pass, raise, or return a wrong answer."""

    name = "fake"
    in_process = True
    unit_items = "answers"

    def round(self, r):
        return [workloads.Op("ok", 1), workloads.Op("raises", 2),
                workloads.Op("wrong", 3), workloads.Op("known", 4, known_reason="got 41"),
                workloads.Op("known, other reason", 5, known_reason="got 50")]

    def run(self, op, tracer=None):
        if op.arg == 2:
            raise ZeroDivisionError("boom")
        return op.arg * 10 + (1 if op.arg >= 3 else 0)

    def check(self, op, result):
        return None if result == op.arg * 10 else f"got {result}"

    def items(self, op, result):
        return 1


def test_loop_counts_raised_errors_and_failed_checks():
    record = run.Record()
    run.run_round(FakeWorkload(), FakeWorkload().round(0), record)
    run.run_round(FakeWorkload(), FakeWorkload().round(1), record)
    reasons = [o.reason for o in record.ops]
    assert reasons[0] is None
    assert reasons[1] == "raised ZeroDivisionError: boom"
    assert reasons[2] == "got 31"
    assert [o.known_defect for o in record.ops if o.reason] == [False, False, True, False] * 2
    gated, extra = run.end_to_end(FakeWorkload(), record, [1.0, 3.0, 2.0])
    assert extra["fail_ratio"] == pytest.approx(8 / 10)
    assert extra["answers_per_s"] > 0
    assert extra["setup_raw_s"] == 2.0
    assert gated["setup_s"] == pytest.approx(2.0 * run.REF_NOMINAL_S / extra["ref_s"])
    assert "op_p90_s" not in extra  # reported from 100 operations on
    assert len(record.round_walls()) == 2
    assert all(len(o.ref) == run.REF_REPEAT for o in record.ops)


def test_times_are_relative_to_their_rounds_reference():
    def op(latency, ref):
        return run.OpResult("x", latency, ref, None, False, 1, 0)

    record = run.Record()
    record.rounds = [[op(1.0, [0.1, 0.3]), op(3.0, [0.2])],      # reference 0.2
                     [op(4.0, [0.4, 0.4, 0.5]), op(4.0, [0.3])]]  # reference 0.4
    assert record.round_refs() == [0.2, 0.4]
    assert record.rel_latencies() == pytest.approx([5.0, 15.0, 10.0, 10.0])
    gated, extra = run.end_to_end(FakeWorkload(), record, [1.0])
    assert gated["wall_ref"] == pytest.approx(20.0)  # mean of 4 / 0.2 and 8 / 0.4
    assert gated["op_p50_ref"] == pytest.approx(10.0)
    assert extra["wall_s"] == 6.0 and extra["op_p50_s"] == 3.5
    assert extra["ref_s"] == pytest.approx(0.3)
    assert gated["setup_s"] == pytest.approx(1.0 * run.REF_NOMINAL_S / 0.3)


class _Mode:
    def __init__(self, kind, lam):
        self.kind, self.lam = kind, lam


def _spectra_check(label, found, oracle, w2=100.0):
    """Spectra.check of a spectrum with Omega^2 values ``found`` (the
    exponential family below w2, one oscillatory mode above) against an
    oracle ladder that agrees on every grid, and whether the loop would
    count the failure as a known defect."""
    params = (1.0, 1.0, w2, 0.0, 0.0)
    wl = workloads.Spectra(None, 0, None)
    wl._oracle_cache[params] = (oracle,) * len(workloads.ORACLE_GRIDS)
    spec = types.SimpleNamespace(modes=[_Mode("neg" if f > w2 else "pos", w2 - f) for f in found])
    reason = wl.check(workloads.Op(label, (params, 1)), spec)
    known_reason = dict(workloads.REPROS).get(label, (None, workloads.KNOWN_DEFECT))[1]
    return reason, bool(reason and reason.startswith(known_reason))


def test_known_defect_is_one_lost_near_degenerate_pair():
    pair = [9.511037, 9.513709, 150.0]
    assert _spectra_check("n_neg=64", pair, pair) == (None, False)
    assert _spectra_check("n_neg=64", [150.0], pair)[1]          # both of the pair
    assert _spectra_check("n_neg=64", [9.511037, 150.0], pair)[1]  # one of the pair
    # two lost modes that are not a near-degenerate pair
    apart = [2.0, 9.5, 150.0]
    reason, known = _spectra_check("n_neg=64", [150.0], apart)
    assert reason.startswith("lost 2") and not known
    # two lost pairs
    assert not _spectra_check("n_neg=64", [150.0], [2.185, 2.187, 9.511, 9.514, 150.0])[1]
    # a lone lost mode
    assert not _spectra_check("n_neg=64", [2.0, 150.0], [2.0, 9.5, 150.0])[1]
    # a wrong frequency is never known
    reason, known = _spectra_check("n_neg=64", [9.6, 9.7, 150.0], pair)
    assert reason.startswith("mode count or frequency off") and not known


def test_repros_are_known_only_with_their_recorded_reason():
    pair = [9.511037, 9.513709, 150.0]
    assert _spectra_check("repro-lost-bound-states", [150.0], pair)[1]
    other_pair = [2.185, 2.187, 150.0]
    assert not _spectra_check("repro-lost-bound-states", [150.0], other_pair)[1]
    assert not _spectra_check("repro-lost-bound-states", [9.6, 9.7, 150.0], pair)[1]
    reason = workloads.REPROS["repro-zero-mode-locus"][1]
    assert reason == "raised ValueError: math domain error"


def _fake_package():
    """A stand-in for stringmass with one function bound in two modules."""
    spectrum = types.ModuleType("stringmass.spectrum")

    def secular_negative(omega, params):
        return omega

    def find_negative_modes(params, k_max):
        return [spectrum.secular_negative(w, params) for w in range(k_max)]

    def build_spectrum(params, n):
        return spectrum.find_negative_modes(params, n)

    spectrum.secular_negative = secular_negative
    spectrum.find_negative_modes = find_negative_modes
    spectrum.build_spectrum = build_spectrum
    package = types.ModuleType("stringmass")
    package.build_spectrum = build_spectrum
    return {"stringmass": package, "stringmass.spectrum": spectrum}


def test_tracer_wraps_every_binding_and_counts_secular_points(monkeypatch):
    for name, mod in _fake_package().items():
        monkeypatch.setitem(sys.modules, name, mod)
    spectrum = sys.modules["stringmass.spectrum"]
    original = spectrum.build_spectrum
    tracer = tracing.Tracer()
    tracer.install()
    assert sys.modules["stringmass"].build_spectrum is spectrum.build_spectrum
    spectrum.build_spectrum(None, 3)  # inactive: nothing recorded
    assert tracer.spans == []
    tracer.active = True
    assert spectrum.build_spectrum(None, 4) == [0, 1, 2, 3]
    tracer.active = False
    tracer.uninstall()
    assert spectrum.build_spectrum is original
    names = [s.name for s in tracer.spans]
    assert names == ["spectrum.find_negative_modes", "spectrum.build_spectrum"]
    assert tracer.spans[0].parent == tracer.spans[1].id
    assert (tracer.secular_calls, tracer.secular_points, tracer.roots) == (4, 4, 4)


def test_tracer_merges_child_spans_under_an_operation():
    tracer = tracing.Tracer()
    tracer.record("import.stringmass", 0.0, 1.0)
    child = tracing.Tracer()
    child.record("cli.cmd_modes", 1.0, 2.0)
    child.record("spectrum.basis", 1.2, 1.5, parent=0)
    tracer.merge(child.to_json(), op=7)
    assert [(s.id, s.parent, s.op) for s in tracer.spans] == [(0, None, 0), (1, None, 7), (2, 1, 7)]


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |       numpy._core
import time:       200 |        300 |     numpy
import time:        50 |        350 |   stringmass.model
import time:        30 |         30 |         numpy.f2py
import time:       400 |        430 |       scipy.special
import time:       600 |        600 |       scipy.optimize
import time:       500 |       1530 |     scipy.integrate
import time:       100 |       1630 |   stringmass.mufunc
import time:        20 |       2000 | stringmass
"""


def test_import_breakdown_attributes_nested_imports():
    rows = stats.parse_importtime(IMPORTTIME)
    assert rows[0] == ("numpy._core", 3, pytest.approx(100e-6), pytest.approx(100e-6))
    got = stats.import_breakdown(rows)
    assert got["import.numpy_s"] == pytest.approx(300e-6)  # f2py counts for scipy
    assert got["import.scipy_s"] == pytest.approx(1530e-6)
    assert got["import.scipy.integrate_s"] == pytest.approx(1530e-6)
    assert got["import.scipy.optimize_s"] == pytest.approx(600e-6)
    assert got["import.stringmass_s"] == pytest.approx(170e-6)
    assert got["import.total_s"] == pytest.approx(2000e-6)
