"""Tests of the benchmark harness itself.

    python3 -m pytest bench -q
"""

import json
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calib  # noqa: E402
import paper  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as w  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1000, 0, -1)) == (99, 990, 10)
    assert run.tail(range(1, 101)) == (90, 90, 10)
    assert run.tail(range(1, 12)) == (100 / 11, 1, 10)
    p, value, beyond = run.tail(range(1, 82))
    assert (value, beyond) == (71, 10) and 87 < p < 88


def test_tail_falls_back_to_the_median_with_few_samples():
    assert run.tail([5, 1, 4, 2, 3, 9, 8, 7, 6, 10]) == (50, 5, 5)
    assert run.tail([0.25]) == (50, 0.25, 0)


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] and c [5, 6]; b holds d [2, 3]; c makes one
    # aggregated call [5.25, 5.75].
    t = tr.Tracer(ScriptedClock([0, 1, 2, 3, 4, 5, 5.25, 5.75, 6, 10]))
    t.enabled = True
    inner = t._aggregate(lambda: None, lambda: ("inner", "agg"),
                         track_conductor=False)
    a = t.enter("a", "m.a")
    b = t.enter("b", "m.b")
    t.exit(t.enter("d", "m.d"))
    t.exit(b)
    c = t.enter("c", "m.c")
    inner()
    t.exit(c)
    t.exit(a)
    summary = t.summary()
    assert summary["self_s"] == {"m.a": 6, "m.b": 2, "m.d": 1, "m.c": 0.5,
                                 "agg": 0.5}
    assert [(s[1], s[4], s[5]) for s in t.spans] == [
        ("a", -1, 6), ("b", 0, 2), ("d", 1, 1), ("c", 0, 0.5)]
    assert summary["wrapper_calls"]["inner"] == 1


def test_wrappers_replace_every_binding_and_uninstall_restores():
    import crepant
    from crepant import cli, exactnum, isocheck, ringtables

    originals = {(m, f): getattr(sys.modules[f"crepant.{m}"], f)
                 for m, f, _ in tr.FUNCTIONS}
    rmul = exactnum.Cyclotomic.__rmul__
    t = tr.Tracer()
    t.install()
    try:
        for name, mod in list(sys.modules.items()):
            if name == "crepant" or name.startswith("crepant."):
                for value in vars(mod).values():
                    assert not any(value is fn for fn in originals.values())
        assert cli.qc_eval is isocheck.qc_eval is ringtables.qc_eval
        assert exactnum.Cyclotomic.__rmul__ is not rmul
        t.enabled = True
        isocheck.conjecture_scan(2)
        t.enabled = False
    finally:
        t.uninstall()
    calls = t.summary()["wrapper_calls"]
    for label in ("isocheck.conjecture_scan", "ringtables.qc_eval",
                  "isocheck.transport_check", "corrections.delta_eval",
                  "Cyclotomic.__mul__", "exactnum.cyclotomic_polynomial"):
        assert calls[label] > 0, label
    assert isocheck.qc_eval is originals[("ringtables", "qc_eval")]
    assert crepant.qc_eval is originals[("ringtables", "qc_eval")]
    assert exactnum.Cyclotomic.__rmul__ is rmul


def test_layer_metrics_match_the_benchmark_file():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    named = {m["name"]: m["unit"] for m in spec["per_layer"]}
    empty = tr.merge([])
    reported = dict(tr.metric_names(), **{"trace.overhead_s": "s"})
    assert set(tr.layer_metrics(empty)) | {"trace.overhead_s"} == set(named)
    assert reported == named
    e2e = {m["name"] for m in spec["end_to_end"]}

    class Done:
        name = "tables"
        in_process = True
    outcomes = [w.Outcome(0, 0.5, True), w.Outcome(1, 1.5, True),
                w.Outcome(3, 2.5, True)]
    for o, op in zip(outcomes, ("a", "b", "a")):
        o.op, o.ref = op, calib.REF_NOMINAL_S
    metrics, extra = run.end_to_end(Done(), outcomes,
                                    [(0.1, calib.REF_NOMINAL_S)])
    assert set(metrics) == e2e
    assert metrics["ops_per_s"][0] == 2 / 3  # a: median 1.5 s, b: 1.5 s
    assert extra["samples"] == 2


def test_times_are_scaled_by_the_reference_kernel():
    # a host half as fast doubles both an operation and the kernel
    outcome = w.Outcome(0, 2.0, True, setup=0.2)
    outcome.op, outcome.ref = "a", 2 * calib.REF_NOMINAL_S
    metrics, _ = run.end_to_end(w.Tables(), [outcome],
                                [(0.2, outcome.ref)])
    assert metrics["op_p50_ms"][0] == 1000
    assert metrics["setup_s"][0] == 0.1
    raw, _ = run.end_to_end(w.Tables(), [outcome], [(0.2, outcome.ref)],
                            run.uncalibrated)
    assert raw["op_p50_ms"][0] == 2000


def test_sampler_reference_is_local_and_busy_time_is_taken_out():
    # samples begin at 0, 10, 13 and 20 and take 1, 2, 3 and 4 s
    clock = ScriptedClock([0, 1, 10, 12, 13, 16, 20, 24])
    sampler = calib.Sampler(clock, measure=lambda: None)
    for _ in range(4):
        sampler.tick()
    assert sampler.ref(5, 15) == 2.5 and sampler.busy(5, 15) == 5
    assert sampler.ref(2, 3) == 1.5 and sampler.busy(2, 3) == 0
    assert sampler.ref(-5, -1) == 1 and sampler.ref(25, 30) == 4


def test_a_tick_inside_a_tick_is_skipped():
    sampler = calib.Sampler(measure=lambda: sampler.tick())
    sampler.tick()
    assert len(sampler.times) == 1 and not sampler.ticking


def test_periodic_samples_stop_and_restore_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calib.Sampler(period=0.01)
    with sampler.periodic():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    taken = len(sampler.times)
    assert taken >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    time.sleep(0.05)
    assert len(sampler.times) == taken


class Claimed:
    """Operations that claim a latency without taking it."""
    name = "claimed"
    in_process = False

    def __init__(self, latency):
        self.latency = latency

    def ops(self, seed, pass_no):
        return ["a", "b"]

    def run(self, op, expected):
        return w.Outcome(time.perf_counter(), self.latency, True)


def test_passes_stop_before_an_operation_that_would_overrun():
    sampler = calib.Sampler(measure=lambda: None)
    outcomes, passes = run.run_passes(Claimed(10), 0, 5, {}, sampler)
    assert passes == 1 and [o.op for o in outcomes] == ["a", "b"]
    assert all(o.ref >= 0 for o in outcomes)
    sampler = calib.Sampler(measure=lambda: None)
    outcomes, passes = run.run_passes(Claimed(0), 0, 0.05, {}, sampler)
    assert passes > 1


def test_short_operations_repeat_within_a_pass():
    sampler = calib.Sampler(measure=lambda: None)
    outcomes, _ = run.run_passes(Claimed(0.02), 0, 0, {}, sampler)
    assert [o.op for o in outcomes] == ["a"] * 3 + ["b"] * 3
    outcomes, _ = run.run_passes(Claimed(0), 0, 0, {}, sampler)
    assert len(outcomes) == 2 * run.REPEAT_MAX


def test_cli_draw_is_seeded():
    cli = w.Cli()
    assert cli.ops(7, 0) == cli.ops(7, 0)
    assert cli.ops(7, 0) != cli.ops(8, 0)
    assert cli.ops(7, 0) != cli.ops(7, 1)
    assert sorted(cli.ops(7, 0)) == sorted(w.CATALOGUE)


class FewTables(w.Tables):
    def ops(self, seed, pass_no):
        return [("cr", 1, "text"), ("qc", 2, "json")]


def test_corrupted_expected_output_counts_as_failed():
    expected = w.load_expected()
    outcomes, passes = run.run_passes(FewTables(), 0, 0, expected,
                                      calib.Sampler())
    assert passes == 1 and all(o.ok for o in outcomes)
    expected["tables"]["qc-2-json"] = "0" * 64
    outcomes, _ = run.run_passes(FewTables(), 0, 0, expected,
                                 calib.Sampler())
    assert {(o.op[0], o.ok) for o in outcomes} == {("cr", True),
                                                   ("qc", False)}
    expected["cli"]["resolve --n 1"]["stdout_sha256"] = "0" * 64
    assert not w.Cli().run(["resolve", "--n", "1"], expected).ok


def test_cli_command_is_checked_and_timed():
    outcome = w.Cli().run(["solve", "--n", "1", "--format", "json"],
                          w.load_expected())
    assert outcome.ok, outcome.error
    assert 0 < outcome.setup < outcome.latency


SOLVE_A1 = [{"q": {"coeffs": ["-1"], "conductor": 1},
             "t": {"coeffs": ["0", "0", "-2", "0"], "conductor": 8}},
            {"q": {"coeffs": ["-1"], "conductor": 1},
             "t": {"coeffs": ["0", "0", "2", "0"], "conductor": 8}}]


def _c12(*coeffs):
    return {"coeffs": [str(c) for c in coeffs], "conductor": 12}


SOLVE_A2 = [{"a": _c12(-1, 0, -1, 0), "b": _c12(2, 0, -1, 0),
             "q1": _c12(-1, 0, 1, 0), "q2": _c12(-1, 0, 1, 0)},
            {"a": _c12(-2, 0, 1, 0), "b": _c12(1, 0, 1, 0),
             "q1": _c12(0, 0, -1, 0), "q2": _c12(0, 0, -1, 0)}]


def test_paper_answers_are_checked_literally():
    assert paper.check_solve_a1(SOLVE_A1)
    assert paper.check_solve_a2(SOLVE_A2)
    wrong_q = json.loads(json.dumps(SOLVE_A1))
    wrong_q[0]["q"]["coeffs"] = ["1"]
    assert not paper.check_solve_a1(wrong_q)
    assert not paper.check_solve_a1(SOLVE_A1[:1])
    swapped = json.loads(json.dumps(SOLVE_A2))
    swapped[0]["q2"] = swapped[1]["q2"]
    assert not paper.check_solve_a2(swapped)
    not_cube_root = json.loads(json.dumps(SOLVE_A2))
    not_cube_root[0]["q1"] = not_cube_root[0]["q2"] = _c12(0, 1, 0, 0)
    assert not paper.check_solve_a2(not_cube_root)
    assert paper.check_scan(4, ["pass", "fail", "fail", "pass"])
    assert not paper.check_scan(4, ["pass"] * 4)
