"""crepant benchmark: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload {scan,tables,cli} --seed N --seconds S \
        --trace {0,1}

With --trace 0 the workload runs one whole pass (see workloads.py), then the
operations of further passes, in order, while each still fits in S seconds,
and the run reports:

    ops_per_s     operations per second of operation time (1/s)
    op_p50_ms     median operation latency (ms)
    op_tail_ms    the highest percentile with at least 10 samples beyond
                  it; the median when there are too few samples (ms)
    setup_s       interpreter start until crepant (and click, for cli) is
                  imported: median over fresh interpreters (s)
    peak_rss_mib  peak resident memory of the workload's process, or of its
                  largest command process for cli (MiB)
    failed_ratio  failed / attempted operations; printed, and carried in the
                  result's "failed" and "attempted" keys rather than in its
                  metrics, since it reads 0 on every correct run

The first three count each distinct operation of a pass once, with its
median latency over the times it ran (see op_latencies); an operation
shorter than REPEAT_S runs several times in each pass (see run_passes).
Every time in them and in setup_s is calibrated for the host's speed
(calib.py): scaled by the time a reference kernel took around it.  The meta
line holds the same metrics uncalibrated.

With --trace 1 the run makes one traced pass and then the same pass
untraced, and reports the per-layer metrics of tracer.py plus the tracing
overhead (traced minus untraced operation time).  The spans go to
bench/out/trace-<workload>-<seed>.json.

Human-readable lines and a "meta" line come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  The
run exits 2 without a result when the checkout has no src/crepant.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 15
REPEAT_S = 0.05
REPEAT_MAX = 8
TAIL_BEYOND = 10


def nearest_rank(ordered, p):
    """(rank, value) of the p-th percentile of a sorted list."""
    rank = max(math.ceil(p / 100 * len(ordered)) - 1, 0)
    return rank, ordered[rank]


def tail(samples):
    """(percentile, value, samples beyond it) for op_tail_ms.

    The highest nearest-rank percentile with TAIL_BEYOND samples ranked
    after it; the median when there are too few samples for that.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        rank, value = nearest_rank(ordered, 50)
        return 50, value, n - 1 - rank
    rank = n - 1 - TAIL_BEYOND
    return 100 * (rank + 1) / n, ordered[rank], TAIL_BEYOND


def uncalibrated(seconds, ref_s):
    return seconds


def op_latencies(outcomes, adjust=calib.scale):
    """The latency of each distinct operation: its median over the times it
    ran, each time adjusted by adjust(seconds, reference kernel time).

    Every pass runs the same operations, so the metrics built on these mean
    the same however many passes fit in the time, and a burst of machine
    noise during one run of an operation moves them less.
    """
    by_op = {}
    for o in outcomes:
        by_op.setdefault(str(o.op), []).append(adjust(o.latency, o.ref))
    return [statistics.median(v) for v in by_op.values()]


def schedule(workload, seed, seconds, last):
    """(pass number, operation) of one whole pass, then of the next passes
    in order while each operation is expected, from the time its runs took
    in the last pass (`last`), to end within `seconds` of the first."""
    start = time.perf_counter()
    for pass_no in itertools.count():
        for op in workload.ops(seed, pass_no):
            if pass_no and \
                    time.perf_counter() - start + last[str(op)] >= seconds:
                return
            yield pass_no, op


def run_passes(workload, seed, seconds, expected, sampler):
    """Run the operations of schedule().  Returns the outcomes and how many
    passes ran, the last one perhaps in part.

    An operation shorter than REPEAT_S runs again, back to back, until its
    runs in the pass have taken REPEAT_S or there are REPEAT_MAX of them, so
    that short operations have as many samples as the metrics need.

    `sampler` (calib.Sampler) times the reference kernel after every run
    and periodically during it, and each outcome's `ref` is the kernel's
    time around it.  An in-process run was paused while the kernel ran
    inside it, so it loses that time; a command process was not.
    """
    outcomes, last = [], {}
    sampler.tick()
    with sampler.periodic():
        for pass_no, op in schedule(workload, seed, seconds, last):
            spent = 0.0
            for _ in range(REPEAT_MAX):
                outcome = workload.run(op, expected)
                sampler.tick()
                outcome.op, outcome.pass_no = op, pass_no
                outcomes.append(outcome)
                spent += outcome.latency
                if spent >= REPEAT_S:
                    break
            last[str(op)] = spent
    for o in outcomes:
        end = o.start + o.latency
        if workload.in_process:
            o.latency -= sampler.busy(o.start, end)
        o.ref = sampler.ref(o.start, end)
    return outcomes, outcomes[-1].pass_no + 1


def setup_samples(workload, sampler):
    """Set-up times of fresh interpreters that only import the package, as
    (seconds, reference kernel time) pairs."""
    from workloads import spawn
    spawn(workload.probe)  # compiles bytecode on a fresh checkout; not timed
    sampler.tick()
    spans = []
    with sampler.periodic():
        for _ in range(SETUP_PROBES):
            _, start, _, setup = spawn(workload.probe)
            sampler.tick()
            spans.append((start, setup))
    return [(setup, sampler.ref(start, start + setup))
            for start, setup in spans]


def peak_rss_mib(workload):
    who = resource.RUSAGE_SELF if workload.in_process \
        else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def end_to_end(workload, outcomes, setups, adjust=calib.scale):
    """The end-to-end metrics; `setups` holds (seconds, reference kernel
    time) pairs, and every time is adjusted as in op_latencies."""
    latencies = op_latencies(outcomes, adjust)
    p, tail_s, beyond = tail(latencies)
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (nearest_rank(sorted(latencies), 50)[1] * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(adjust(s, ref) for s, ref in setups),
                    "s"),
        "peak_rss_mib": (peak_rss_mib(workload), "MiB"),
    }
    return metrics, {"tail_percentile": p, "tail_beyond": beyond,
                     "samples": len(latencies)}


def trace_in_process(workload, ops, expected):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    outcomes = []
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            outcomes.append(workload.run(op, expected, tracer))
    finally:
        tracer.uninstall()
    return outcomes, tracer.summary(), tracer.spans, set(tracer.installed)


def trace_cli(workload, ops, expected):
    """Each command traces itself in its own process (child.py)."""
    from tracer import merge

    outcomes, summaries, spans, installed = [], [], [], set()
    trace_file = OUT / f"child-{os.getpid()}.json"
    for i, op in enumerate(ops):
        outcomes.append(workload.run(op, expected, trace_file=trace_file))
        try:
            doc = json.loads(trace_file.read_text())
        except FileNotFoundError:  # the command was killed; it has failed
            continue
        trace_file.unlink()
        offset = len(spans)
        for span in doc["spans"]:
            span[0] = i
            span[4] += offset if span[4] >= 0 else 0
        spans += doc["spans"]
        summaries.append(doc["summary"])
        installed.update(doc["installed"])
    return outcomes, merge(summaries), spans, installed


def traced(workload, seed, expected):
    """One traced pass, then the same pass untraced."""
    from tracer import (EXPECTED_WRAPPERS, layer_metrics, metric_names,
                        module_shares)

    ops = workload.ops(seed, 0)
    OUT.mkdir(exist_ok=True)
    trace = trace_in_process if workload.in_process else trace_cli
    traced_outcomes, summary, spans, installed = trace(workload, ops,
                                                       expected)
    plain_outcomes = [workload.run(op, expected) for op in ops]
    traced_s = sum(o.latency for o in traced_outcomes)
    plain_s = sum(o.latency for o in plain_outcomes)

    metrics = layer_metrics(summary)
    metrics["trace.overhead_s"] = traced_s - plain_s
    units = dict(metric_names())
    units["trace.overhead_s"] = "s"
    dead = sorted(label for label in EXPECTED_WRAPPERS[workload.name]
                  if label in installed
                  and not summary["wrapper_calls"].get(label))

    print(f"layer shares of traced operation time, workload {workload.name}"
          f" ({traced_s:.3f} s traced, {plain_s:.3f} s untraced):")
    for module, seconds, share in module_shares(summary, traced_s):
        print(f"  {module:<24} {seconds:9.4f} s  {share:6.1%}")
    for label in dead:
        print(f"wrapper recorded no calls: {label}", file=sys.stderr)
    (OUT / f"trace-{workload.name}-{seed}.json").write_text(json.dumps(
        {"summary": summary, "spans": spans,
         "span_fields": ["op", "name", "start", "end", "parent", "self_s"]}))
    return ({k: (v, units[k]) for k, v in metrics.items()},
            traced_outcomes + plain_outcomes, not dead)


def git_sha():
    """HEAD of the checkout, read from .git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of the program's source, which names the code measured where
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args, load_start, extra):
    return {"git_sha": git_sha(), "src_sha256": source_sha256(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **extra}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan", "tables", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crepant" / "__init__.py").is_file():
        print(f"bench: no src/crepant under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    load_start = os.getloadavg()
    workload = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected()
    if workload.name != "cli":
        import crepant  # noqa: F401  (not charged to the first operation)

    if args.trace:
        metrics, outcomes, covered = traced(workload, args.seed, expected)
        extra = {"passes": 2}  # one traced, one untraced
    else:
        sampler = calib.Sampler()
        setups = [] if workload.name == "cli" \
            else setup_samples(workload, sampler)
        outcomes, passes = run_passes(workload, args.seed, args.seconds,
                                      expected, sampler)
        setups += [(o.setup, sampler.ref(o.start, o.start + o.setup))
                   for o in outcomes if o.setup is not None]
        metrics, extra = end_to_end(workload, outcomes, setups)
        raw, _ = end_to_end(workload, outcomes, setups, uncalibrated)
        extra["passes"] = passes
        extra["uncalibrated"] = {k: v for k, (v, _) in raw.items()}
        extra["ref_kernel_s"] = statistics.median(sampler.times)
        extra["ref_samples"] = len(sampler.times)
        covered = True

    failed = [o for o in outcomes if not o.ok]
    for o in failed[:20]:
        print(f"failed: {o.error}", file=sys.stderr)
    meta = metadata(args, load_start, {**extra, "operations": len(outcomes)})
    print(f"workload {workload.name}: {len(outcomes)} operations, "
          f"seed {args.seed}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{extra['tail_percentile']:.4g}, "
                    f"{extra['tail_beyond']} of {extra['samples']} beyond)")
        print(f"  {name:<44} {value:14.6g} {unit}{note}")
    print(f"  {'failed_ratio':<44} {len(failed) / len(outcomes):14.6g} 1")
    print("meta " + json.dumps(meta, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    result = {"correct": not failed and covered, "attempted": len(outcomes),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "meta": meta, "samples": [
         [o.pass_no, str(o.op), o.latency, o.ref] for o in outcomes]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
