"""Command-line surface: certification workflows with machine-readable output.

Each command returns its result and exit code, with the seed it ran under and
the values it resolved from its flags; ``main`` times the run, records the
parsed flags with those values, the seed and the tool version in one run
manifest, and writes the output once.  A JSON result goes to ``--out`` or
stdout as ``{"manifest", "result"}``; CSV rows go to ``--out``, beside a
sidecar ``<file>.manifest.json``, or to stdout; ``cert`` without ``--json``
prints plain text.
Result payloads are byte-identical across reruns with an equal manifest
(wall-clock duration lives in the manifest, never in the payload).

Exit codes: 0 success/certified, 1 usage or I/O error, 2 abstain.  The
environment variable ``SMOOTHCERT_SEED`` supplies the default seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import __version__
from .certify import (
    Abstain,
    Certificate,
    ProbBounds,
    certify_for,
    certify_rayleigh,
)
from .distributions import (
    Kind,
    RayleighParams,
    SmoothingDistribution,
    inverse_rayleigh,
    log_gaussian,
    log_laplace,
    log_uniform,
    rayleigh,
)
from .realistic import ErrorBudget, RealisticConfig, certify_realistic, estimate_conversion_error
from .runtime import (
    PredictionResult,
    SmoothedClassifier,
    SmoothingConfig,
    empirical_sweep,
    load_classifier,
    smoothed_predict_certify,
)
from .transforms import read_tensor

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ABSTAIN = 2

_SEED_ENV = "SMOOTHCERT_SEED"
# Parsed names that a manifest's config leaves out: the command and the seed
# have fields of their own, func is the handler, and where and in what form
# the output goes does not change the result.
_NOT_CONFIG = ("command", "func", "seed", "out", "json")

# The reference grid of bound pairs emitted by the `table` command.
TABLE_BOUND_PAIRS = [
    (0.600, 0.400),
    (0.600, 0.200),
    (0.700, 0.300),
    (0.700, 0.100),
    (0.800, 0.200),
    (0.900, 0.100),
    (0.990, 0.010),
    (0.999, 0.001),
]

# A command's result (JSON payload, CSV rows or plain text), exit code, seed and resolved flag values.
_Run = tuple[dict | list[list] | str, int, int | None, dict]

# Each law's factory, and what it takes for a --scale value.
_DIST_FACTORIES = {
    "rayleigh": (rayleigh, RayleighParams),
    "inv-rayleigh": (inverse_rayleigh, RayleighParams),
    "log-gaussian": (log_gaussian, float),
    "log-laplace": (log_laplace, float),
    "log-uniform": (log_uniform, float),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags by default; this tool reserves 2 for abstain."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(_SEED_ENV)
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"{_SEED_ENV} must be an integer, got {env!r}") from None


def _manifest(args: argparse.Namespace, seed: int | None, started: float, **resolved) -> dict:
    """The run manifest; its ``config`` is the parsed flags, with the values the command resolved."""
    config = {name: value for name, value in vars(args).items() if name not in _NOT_CONFIG}
    return {
        "command": args.command,
        "version": __version__,
        "seed": seed,
        "config": {**config, **resolved},
        "duration_s": round(time.perf_counter() - started, 6),
    }


def _certificate_json(cert: Certificate) -> dict:
    return {
        "gamma1": cert.gamma1,
        "gamma2": None if cert.unbounded else cert.gamma2,
        "unbounded": cert.unbounded,
        "method": cert.method.value,
        "distribution": cert.distribution,
        "confidence": cert.confidence,
    }


def _prediction_json(result: PredictionResult) -> dict:
    counts, adjusted = result.counts, result.adjusted
    return {
        "label": result.label,
        "abstained": result.abstained,
        "pa_lower": result.pa_lower,
        "counts": None if counts is None else {"successes": counts.successes, "trials": counts.trials},
        "certificate": _certificate_json(result.certificate) if result.certificate else None,
        "reason": result.reason,
        "adjusted": None
        if adjusted is None
        else {"pa_lower": adjusted.pa_lower, "pb_upper": adjusted.pb_upper},
    }


def _interval_cells(cert: Certificate) -> list[str]:
    """CSV cells gamma1 and gamma2 to two decimals, then both in full (an unbounded end reads ``inf``)."""
    return [f"{cert.gamma1:.2f}", f"{cert.gamma2:.2f}", repr(cert.gamma1), repr(cert.gamma2)]


def _smoothing_distribution(name: str, scale: float | None) -> SmoothingDistribution:
    """The law named ``name``; no scale means its factory's default."""
    factory, argument = _DIST_FACTORIES[name]
    return factory() if scale is None else factory(argument(scale))


# --- table ------------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> _Run:
    rows = [["pa", "pb", "gamma1", "gamma2", "gamma1_full", "gamma2_full"]]
    for pa, pb in TABLE_BOUND_PAIRS:
        cert = certify_rayleigh(ProbBounds(pa, pb))
        assert isinstance(cert, Certificate)
        rows.append([f"{pa:.3f}", f"{pb:.3f}", *_interval_cells(cert)])
    return rows, EXIT_OK, None, {}


# --- cert -------------------------------------------------------------------


def cmd_cert(args: argparse.Namespace) -> _Run:
    if not 0.0 < args.pa < 1.0:
        raise ValueError(f"--pa must lie in (0, 1), got {args.pa}")
    pb = 1.0 - args.pa if args.trivial_pb else args.pb
    if not args.trivial_pb and pb >= args.pa:
        raise ValueError(f"--pb {pb} must be below --pa {args.pa}")

    outcome = certify_for(_smoothing_distribution(args.dist, args.scale), ProbBounds(args.pa, pb))

    if isinstance(outcome, Abstain):
        result = {"abstain": True, "reason": outcome.reason} if args.json else f"abstain: {outcome.reason}\n"
        return result, EXIT_ABSTAIN, None, {"pb": pb}
    if args.json:
        return {"abstain": False, "certificate": _certificate_json(outcome)}, EXIT_OK, None, {"pb": pb}
    gamma2 = "inf" if outcome.unbounded else f"{outcome.gamma2:.4f}"
    text = (
        f"gamma1 {outcome.gamma1:.4f}\n"
        f"gamma2 {gamma2}\n"
        f"method {outcome.method.value}\n"
        f"distribution {outcome.distribution}\n"
        f"confidence {outcome.confidence:g}\n"
    )
    return text, EXIT_OK, None, {"pb": pb}


# --- smooth -----------------------------------------------------------------


def cmd_smooth(args: argparse.Namespace) -> _Run:
    seed = _resolve_seed(args.seed)
    x = read_tensor(args.input)
    base = load_classifier(args.classifier)
    dist = _smoothing_distribution(args.dist, args.scale)
    cfg = SmoothingConfig(n=args.n, alpha=args.alpha, dist=dist, seed=seed, n0=args.n0)

    result = smoothed_predict_certify(base, x, cfg)
    payload: dict = {
        "classifier": base.descriptor,
        "distribution": dist.descriptor,
        **_prediction_json(result),
        "sweep": None,
    }
    if args.sweep:
        handle = SmoothedClassifier(base, cfg)
        interval = empirical_sweep(handle.predict, x, args.step, args.gamma_max)
        payload["sweep"] = (
            {"empty": True, "left": None, "right": None}
            if interval is None
            else {"empty": False, "left": interval[0], "right": interval[1]}
        )
    return payload, EXIT_ABSTAIN if result.abstained else EXIT_OK, seed, {}


# --- realistic --------------------------------------------------------------


def cmd_realistic(args: argparse.Namespace) -> _Run:
    budget = ErrorBudget.load(args.budget)
    cfg = RealisticConfig.load(args.config)
    x = read_tensor(args.input)
    base = load_classifier(args.classifier)
    if not budget.feasible:
        print(f"warning: rho={budget.rho} >= 1/2, certification will abstain", file=sys.stderr)

    result = certify_realistic(base, x, cfg, budget)
    payload = {
        "classifier": base.descriptor,
        **_prediction_json(result),
        "budget": budget.to_json(),
    }
    return payload, EXIT_ABSTAIN if result.abstained else EXIT_OK, cfg.seed, {"config": cfg.to_json()}


# --- estimate-error ---------------------------------------------------------


def cmd_estimate_error(args: argparse.Namespace) -> _Run:
    seed = _resolve_seed(args.seed)
    dataset_dir = Path(args.dataset)
    if not dataset_dir.is_dir():
        raise OSError(f"dataset directory not found: {dataset_dir}")
    paths = sorted(dataset_dir.glob("*.mst1"))
    if not paths:
        raise OSError(f"no .mst1 tensors in {dataset_dir}")
    tensors = [read_tensor(p) for p in paths]

    E = estimate_conversion_error(
        tensors,
        (args.gamma_min, args.gamma_max),
        q_E=args.qe,
        alpha_E=args.alphae,
        grid_points=args.grid,
        seed=seed,
    )
    payload = {
        "E": E,
        "q_E": args.qe,
        "alpha_E": args.alphae,
        "gamma_interval": [args.gamma_min, args.gamma_max],
        "grid_points": args.grid,
        "num_tensors": len(tensors),
    }
    return payload, EXIT_OK, seed, {}


# --- compare ----------------------------------------------------------------


def _parse_pa_grid(spec: str) -> list[float]:
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            ends = float(start), float(stop)
            if not all(map(math.isfinite, ends)):
                raise ValueError  # before np.linspace, which warns on a non-finite end
            return [float(v) for v in np.linspace(*ends, max(int(count), 0))]
        return [float(v) for v in spec.split(",") if v.strip()]
    except ValueError:  # a part that is no number or no finite range end, or a range of other than three parts
        raise ValueError(f"--pa-grid must be start:stop:count (integer count) or a comma list, got {spec!r}") from None


def cmd_compare(args: argparse.Namespace) -> _Run:
    """Per-distribution certified intervals over a pa grid (trivial runner-up).

    Besides the requested laws at the given scale, emits a
    ``log-gaussian-matched`` row whose scale is chosen so its right endpoint
    coincides with the direct multiplicative certificate; the left endpoints
    then compare the small-factor strength at equal large-factor strength.
    """
    dists = [d.strip() for d in args.dists.split(",") if d.strip()]
    unknown = [d for d in dists if d not in _DIST_FACTORIES]
    if unknown:
        raise ValueError(f"unknown distributions: {unknown} (choose from {list(_DIST_FACTORIES)})")
    pa_grid = _parse_pa_grid(args.pa_grid)
    if not (dists and pa_grid):
        raise ValueError("--dists and --pa-grid must each name at least one value")

    rows = [["pa", "distribution", "scale", "gamma1", "gamma2", "gamma1_full", "gamma2_full"]]
    for pa in pa_grid:
        if not 0.0 < pa < 1.0:
            raise ValueError(f"pa grid values must lie in (0, 1), got {pa}")
        pb = 1.0 - pa
        rayleigh_cert: Certificate | None = None
        for name in dists:
            dist = _smoothing_distribution(name, None)
            if dist.kind.log_space:  # --scale sets the log-space laws only
                dist = _smoothing_distribution(name, args.scale)
            outcome = certify_for(dist, ProbBounds(pa, pb))
            if dist.kind is Kind.RAYLEIGH and isinstance(outcome, Certificate):
                rayleigh_cert = outcome
            rows.append(_compare_row(pa, name, dist.scale, outcome))
        if args.matched and rayleigh_cert is not None and rayleigh_cert.gamma2 > 1.0:
            # scale matching the log-Gaussian right endpoint to the direct one (gamma2 > 1 implies pa > 1/2)
            matched_scale = math.log(rayleigh_cert.gamma2) / float(ndtri(pa))
            outcome = certify_for(log_gaussian(matched_scale), ProbBounds(pa, pb))
            rows.append(_compare_row(pa, "log-gaussian-matched", matched_scale, outcome))
    return rows, EXIT_OK, None, {}


def _compare_row(pa: float, name: str, scale: float, outcome) -> list:
    cells = ["", "", "", ""] if isinstance(outcome, Abstain) else _interval_cells(outcome)
    return [f"{pa:.6g}", name, f"{scale:.6g}", *cells]


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smoothcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"smoothcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("table", help="reference certificate table as CSV")
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cert", help="certificate from probability bounds")
    p.add_argument("--pa", type=float, required=True, help="lower bound on the top-class probability")
    runner_up = p.add_mutually_exclusive_group(required=True)
    runner_up.add_argument("--pb", type=float, help="upper bound on the runner-up probability")
    runner_up.add_argument("--trivial-pb", action="store_true", help="use pb = 1 - pa")
    p.add_argument("--dist", choices=list(_DIST_FACTORIES), default="rayleigh")
    p.add_argument("--scale", type=float, help="distribution scale (defaults: unit-median sigma / 1.0)")
    p.add_argument("--json", action="store_true", help="emit a JSON report instead of plain text")
    p.set_defaults(func=cmd_cert)

    p = sub.add_parser("smooth", help="Monte-Carlo smoothed prediction and certificate")
    p.add_argument("--input", required=True, help="input tensor (.mst1)")
    p.add_argument("--classifier", required=True, help="classifier manifest (.json)")
    p.add_argument("--n", type=int, required=True, help="estimation sample count")
    p.add_argument("--n0", type=int, default=100, help="selection sample count")
    p.add_argument("--alpha", type=float, required=True, help="mistake probability budget")
    p.add_argument("--seed", type=int, help=f"seed (default: ${_SEED_ENV} or 0)")
    p.add_argument("--dist", choices=list(_DIST_FACTORIES), default="rayleigh")
    p.add_argument("--scale", type=float)
    p.add_argument("--sweep", action="store_true", help="also walk the empirical robustness interval")
    p.add_argument("--step", type=float, default=0.01, help="sweep step")
    p.add_argument("--gamma-max", type=float, default=4.0, help="sweep upper limit")
    p.add_argument("--out", help="JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("realistic", help="double-smoothing certification (8-bit setting)")
    p.add_argument("--budget", required=True, help="error budget JSON")
    p.add_argument("--config", required=True, help="sampling config JSON")
    p.add_argument("--input", required=True, help="input tensor (.mst1)")
    p.add_argument("--classifier", required=True, help="classifier manifest (.json)")
    p.add_argument("--out", help="JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_realistic)

    p = sub.add_parser("estimate-error", help="distributional conversion-error bound")
    p.add_argument("--dataset", required=True, help="directory of .mst1 tensors")
    p.add_argument("--gamma-min", type=float, required=True)
    p.add_argument("--gamma-max", type=float, required=True)
    p.add_argument("--qe", type=float, required=True, help="guarantee rate q_E")
    p.add_argument("--alphae", type=float, required=True, help="estimation confidence budget alpha_E")
    p.add_argument("--grid", type=int, default=64, help="attack-factor grid points")
    p.add_argument("--seed", type=int, help=f"seed (default: ${_SEED_ENV} or 0)")
    p.add_argument("--out", help="JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_estimate_error)

    p = sub.add_parser("compare", help="per-distribution certificate intervals as CSV")
    p.add_argument(
        "--dists",
        default="rayleigh,log-gaussian,log-laplace,log-uniform",
        help="comma list of distributions",
    )
    p.add_argument("--pa-grid", default="0.55:0.995:9", help="start:stop:count or comma list")
    p.add_argument("--scale", type=float, default=1.0, help="scale for the log-space laws")
    p.add_argument("--matched", action=argparse.BooleanOptionalAction, default=True,
                   help="include the right-endpoint-matched log-Gaussian baseline")
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        scale = getattr(args, "scale", None)  # cert, smooth and compare take --scale
        if scale is not None and not (scale > 0.0 and math.isfinite(scale)):
            raise ValueError(f"--scale must be a positive finite real, got {scale}")
        result, code, seed, resolved = args.func(args)
        manifest = _manifest(args, seed, started, **resolved)
        text = result  # plain text goes out as it is
        if isinstance(result, list):
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(result)
            text = buffer.getvalue()
        elif isinstance(result, dict):
            text = json.dumps({"manifest": manifest, "result": result}, sort_keys=True, indent=2) + "\n"
        out = getattr(args, "out", None)  # cert takes no --out
        if not out:
            sys.stdout.write(text)
        else:
            Path(out).write_text(text)
            if isinstance(result, list):  # a CSV file's manifest goes beside it
                Path(f"{out}.manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    except (ValueError, OSError) as exc:
        print(f"smoothcert: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
