"""Certification benchmark for smoothcert.

    python3 perfbench/run.py --workload realistic-8bit --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  One process is one client issuing
one workload's requests in a closed loop through smoothcert's public API.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
untraced and then traced, and prints per-layer metrics and the tracing
overhead.  Every result is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SEGMENT_SAMPLES = 100
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "cert_p50_ms": "ms",
    "cert_tail_ms": "ms",
    "certs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "abstain_share": "share",
    "cert_log_width": "ln-ratio",
}

# Span name -> metric reporting its mean self time per request.
REQUEST_SELF_MS = {
    "certify.clopper_pearson": "certify.clopper_pearson_ms",
    "certify.interval": "certify.interval_ms",
    "rng.uniforms": "rng.uniforms_ms",
    "distributions.sample": "distributions.sample_ms",
    "transforms.power": "transforms.power_ms",
    "runtime.labels": "runtime.labels_ms",
    "realistic.certify": "realistic.certify_self_ms",
    "multicert.solve_thresholds": "multicert.solve_thresholds_self_ms",
    "multicert.query": "multicert.query_self_ms",
    "request": "trace.unattributed_ms",
}
# Counts per request that must repeat exactly when a request is reissued.
REQUEST_COUNTS = {
    "rng.draws": "count",
    "runtime.rows_labelled": "count",
    "certify.clopper_pearson_calls": "count",
    "realistic.inner_batches": "count",
    "multicert.mc_draws": "count",
    "transforms.stack_mb": "MB-computed",
}
PER_LAYER = {
    **{metric: "ms" for metric in REQUEST_SELF_MS.values()},
    **REQUEST_COUNTS,
    "realistic.estimate_error_ms": "ms",
    "realistic.quantile_bound_ms": "ms",
    "transforms.conversion_error_ms": "ms",
    "transforms.conversion_error_calls": "count",
    "trace.request_ms": "ms",
    "trace.overhead_ms": "ms",
}


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 64-bit integer")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    return args


def run_passes(wl, inj, seconds: float, min_passes: int, tracer=None):
    """Closed loop over whole passes of the pool until ``seconds`` have passed.

    Returns ``(outcomes, wall)`` with one ``(entry, latency_s, result, error)``
    per request.  Stopping only at pass boundaries keeps every run's mix of
    requests the same.
    """
    outcomes = []
    started = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - started < seconds:
        for entry, request in enumerate(wl.pool):
            span = tracer.root() if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    result = wl.issue(request, inj)
                error = None
            except Exception as exc:  # a raising request is a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append((entry, time.perf_counter() - t0, result, error))
        passes += 1
    return outcomes, time.perf_counter() - started


def min_passes(wl) -> int:
    """Passes that give the tail percentile the ten samples it needs beyond it."""
    from stats import TAIL_SAMPLES_BEYOND

    return math.ceil((TAIL_SAMPLES_BEYOND + 1) / len(wl.pool))


def segment_latencies(latencies, pool: int):
    """Split a run's latencies into segments of whole passes, each of >= SEGMENT_SAMPLES.

    The host's cores drift between faster and slower modes over seconds; the
    median across segments of the per-segment tail is steadier than the tail
    of the whole run, whose top ten samples are outliers when a run holds
    thousands of short requests.  Runs with fewer samples than two segments
    stay whole.
    """
    per_segment = math.ceil(SEGMENT_SAMPLES / pool) * pool
    count = max(1, len(latencies) // per_segment)
    bounds = [i * per_segment for i in range(count)] + [len(latencies)]
    return [latencies[a:b] for a, b in zip(bounds, bounds[1:])]


def timed_setup(wl, inj) -> float:
    """One set-up: inputs, file round trips, any budget estimate, and the warm-up request."""
    t0 = time.perf_counter()
    wl.setup(inj)
    wl.issue(wl.pool[0], inj)
    return time.perf_counter() - t0


def tally_outcomes(tally, outcomes) -> None:
    for entry, _latency, result, error in outcomes:
        tally.add(entry, result, error)


def reissue_first(wl, inj, tally) -> None:
    """Re-issue the first request at the end; it must match its first result byte for byte."""
    try:
        tally.add(0, wl.issue(wl.pool[0], inj))
    except Exception as exc:  # a raising request is a failed operation
        tally.add(0, error=f"{type(exc).__name__}: {exc}")


def outcome_shares(wl, tally):
    """Abstain share and mean log-width over the pool's distinct requests."""
    entries = sorted(tally.first)
    results = [tally.first[e][0] for e in entries]
    abstain = sum(wl.abstained(r) for r in results) / len(results)
    widths = [w for w in (wl.log_width(wl.pool[e], r) for e, r in zip(entries, results)) if w is not None]
    return abstain, (statistics.fmean(widths) if widths else 0.0)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(wl, inj, args, import_s, report):
    from stats import TAIL_SAMPLES_BEYOND, Tally, tail_percentile

    setup_s = import_s + statistics.median(timed_setup(wl, inj) for _ in range(SETUP_REPEATS))
    outcomes, wall = run_passes(wl, inj, args.seconds, min_passes(wl))
    tally = Tally(lambda entry, result: wl.check(wl.pool[entry], result))
    tally_outcomes(tally, outcomes)
    reissue_first(wl, inj, tally)

    latencies = [o[1] for o in outcomes]
    segments = segment_latencies(latencies, len(wl.pool))
    tails = [tail_percentile(segment) for segment in segments]
    abstain, width = outcome_shares(wl, tally)
    report.append(f"requests={len(outcomes)} passes={len(outcomes) // len(wl.pool)} wall_s={wall:.3f}")
    report.append(
        f"cert_tail_ms is the median over {len(segments)} segment(s) of the p{tails[0][1]:.2f} latency of "
        f"{tails[0][2]} samples ({TAIL_SAMPLES_BEYOND} beyond it)"
    )
    values = {
        "cert_p50_ms": statistics.median(latencies) * 1e3,
        "cert_tail_ms": statistics.median(t[0] for t in tails) * 1e3,
        "certs_per_s": len(outcomes) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "abstain_share": abstain,
        "cert_log_width": width,
    }
    return tally, {name: metric(values[name], unit) for name, unit in END_TO_END.items()}, []


def per_layer(wl, inj, args, report):
    from stats import Tally
    from spans import REQUEST, Injection, Tracer, library_targets

    for _ in range(SETUP_REPEATS):
        timed_setup(wl, inj)
    half = args.seconds / 2.0
    plain, _ = run_passes(wl, inj, half, min_passes(wl))

    tracer = Tracer()
    traced_inj = Injection(tracer)
    with tracer.installed(library_targets(tracer)):
        for _ in range(2):
            with tracer.root("setup"):
                wl.setup(traced_inj)
        traced, _ = run_passes(wl, traced_inj, half, 2, tracer)

    tally = Tally(lambda entry, result: wl.check(wl.pool[entry], result))
    tally_outcomes(tally, plain)
    tally_outcomes(tally, traced)  # tracing must not change a single result
    reissue_first(wl, inj, tally)

    problems = []
    requests = [r for r in tracer.records if r.root.name == REQUEST]
    setups = [r for r in tracer.records if r.root.name == "setup"]
    pool = len(wl.pool)
    if len(requests) != len(traced):
        problems.append(f"{len(traced) - len(requests)} traced requests left no span")

    selfs = Counter()
    for record in requests:
        own = record.self_times()
        if abs(sum(own.values()) - record.duration) > 1e-9:
            problems.append(f"self times do not add up to the request span ({sum(own.values())} vs {record.duration})")
        selfs.update(own)
    for first, second in zip(requests[:pool], requests[pool : 2 * pool]):
        if first.counts != second.counts:
            problems.append(f"counts differ between two issues of one request: {first.counts} vs {second.counts}")
            break
    if len(setups) == 2 and setups[0].counts != setups[1].counts:
        problems.append(f"set-up counts differ between two set-ups: {setups[0].counts} vs {setups[1].counts}")

    values = {metric_name: 1e3 * selfs[span] / len(requests) for span, metric_name in REQUEST_SELF_MS.items()}
    for name in REQUEST_COUNTS:
        values[name] = sum(r.counts[name] for r in requests[:pool]) / pool
    setup_self = Counter()
    setup_incl = Counter()
    for record in setups:
        setup_self.update(record.self_times())
        setup_incl.update(record.inclusive())
    values["realistic.estimate_error_ms"] = 1e3 * setup_incl["realistic.estimate_error"] / len(setups)
    values["realistic.quantile_bound_ms"] = 1e3 * setup_self["realistic.quantile_bound"] / len(setups)
    values["transforms.conversion_error_ms"] = 1e3 * setup_self["transforms.conversion_error"] / len(setups)
    values["transforms.conversion_error_calls"] = setups[0].counts["transforms.conversion_error_calls"]
    values["trace.request_ms"] = 1e3 * statistics.fmean(r.duration for r in requests)
    plain_p50 = statistics.median(o[1] for o in plain)
    traced_p50 = statistics.median(o[1] for o in traced)
    values["trace.overhead_ms"] = 1e3 * (traced_p50 - plain_p50)

    report.append(
        f"untraced requests={len(plain)} traced requests={len(traced)} "
        f"cert_p50_ms untraced={1e3 * plain_p50:.3f} traced={1e3 * traced_p50:.3f}"
    )
    if tracer.absent:
        report.append("wrap targets absent: " + ", ".join(tracer.absent))
    return tally, {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "smoothcert" / "__init__.py").is_file():
        print(f"no smoothcert sources under {src}: run from the root of a source checkout", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import smoothcert

    if not Path(smoothcert.__file__).resolve().is_relative_to(src.resolve()):
        print(f"smoothcert imported from {smoothcert.__file__}, not from {src}", file=sys.stderr)
        return 2
    import selftest
    import workloads
    from spans import Injection
    from stats import failed_share

    import_s = time.perf_counter() - STARTED
    failures = selftest.run()
    if failures:
        print("harness self-tests failed:\n" + "\n".join(failures), file=sys.stderr)
        return 3
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    report = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"nproc={nproc} numpy={numpy.__version__} scipy={scipy.__version__}"
    ]
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            tally, metrics, problems = per_layer(wl, Injection(), args, report)
        else:
            tally, metrics, problems = end_to_end(wl, Injection(), args, import_s, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    report.append(f"failed_share={tally.failed}/{tally.attempted}={failed_share(tally.failed, tally.attempted):.6g}")
    if tally.excused:
        report.append(
            f"excused: {len(tally.excused)} of {len(wl.pool)} distinct requests disagree with the exact "
            "answer within their stated confidence (requests " + ", ".join(map(str, sorted(tally.excused))) + ")"
        )
    report.extend(f"FAILED {reason}" for reason in tally.reasons + problems)
    for line in report:
        print(line)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and not problems,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
