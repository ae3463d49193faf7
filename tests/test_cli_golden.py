"""Golden CLI outputs: `cert`, `compare`, `table`, `smooth`, `realistic` and
`estimate-error` byte for byte.

Every case runs the CLI in-process and compares its exit code and output with
``golden/cli.json``; a case that writes to stderr pins that text too.  JSON
reports are pinned without the manifest's ``duration_s`` (wall-clock time),
with the workspace directory written as ``<ws>``.  Regenerate the file, after a deliberate output change only, with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints the name of every case whose recorded output it changes, adds or
drops, so that a re-record can be reviewed case by case.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from smoothcert import write_tensor
from smoothcert.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

LAWS = ["rayleigh", "inv-rayleigh", "log-gaussian", "log-laplace", "log-uniform"]
SIGMAS_GAUSS = (1.0, 4.0)


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for law in LAWS:
        for pa in ("0.6", "0.9", "0.999"):
            for bound, flags in (("pb", ["--pb", "0.05"]), ("trivial", ["--trivial-pb"])):
                for mode, extra in (("plain", []), ("json", ["--json"])):
                    argv = ["cert", "--pa", pa, *flags, "--dist", law, *extra]
                    cases[f"cert-{law}-{pa}-{bound}-{mode}"] = argv
        for mode, extra in (("plain", []), ("json", ["--json"])):
            argv = ["cert", "--pa", "0.9", "--trivial-pb", "--dist", law, "--scale", "0.5", *extra]
            cases[f"cert-{law}-scale0.5-{mode}"] = argv
        cases[f"cert-{law}-pb0-json"] = ["cert", "--pa", "0.9", "--pb", "0", "--dist", law, "--json"]
        argv = ["smooth", "--input", "<ws>/x.mst1", "--classifier", "<ws>/oracle.json",
                "--n", "2000", "--alpha", "0.01", "--seed", "7", "--dist", law]
        cases[f"smooth-{law}"] = argv
    for law in ("rayleigh", "inv-rayleigh", "log-gaussian", "log-uniform"):
        cases[f"cert-{law}-abstain"] = ["cert", "--pa", "0.45", "--trivial-pb", "--dist", law]
    cases["compare-default"] = ["compare"]
    cases["compare-all-laws-scale0.5"] = ["compare", "--dists", ",".join(LAWS), "--scale", "0.5"]
    cases["compare-no-matched"] = ["compare", "--no-matched"]
    cases["table"] = ["table"]
    cases["smooth-rayleigh-sweep"] = [
        "smooth", "--input", "<ws>/x.mst1", "--classifier", "<ws>/oracle.json",
        "--n", "500", "--alpha", "0.01", "--seed", "3", "--sweep", "--step", "0.1",
    ]
    # the smoothed top-class probability of this oracle is exactly 1/2
    cases["smooth-abstain"] = [
        "smooth", "--input", "<ws>/x.mst1", "--classifier", "<ws>/half.json",
        "--n", "500", "--alpha", "0.01", "--seed", "7",
    ]
    linear = ["--input", "<ws>/image.mst1", "--classifier", "<ws>/linear.json"]
    cases["smooth-linear"] = ["smooth", *linear, "--n", "2000", "--alpha", "0.01", "--seed", "5"]
    # 50 inner draws of 3x16x16 noise: 38,400 values, enough to split the noise over cores
    for sigma in SIGMAS_GAUSS:
        cases[f"realistic-linear-sigma{sigma:g}"] = [
            "realistic", *linear, "--budget", "<ws>/budget.json",
            "--config", f"<ws>/realistic-sigma{sigma:g}.json",
        ]
    # q_E = 0.5 at alpha_E = 0.1 needs 4 tensors; the workspace holds 6
    estimate = ["estimate-error", "--dataset", "<ws>/data", "--grid", "16", "--seed", "4"]
    for lo, hi in (("0.8", "1.25"), ("0.5", "2.0")):
        cases[f"estimate-error-{lo}-{hi}"] = [
            *estimate, "--gamma-min", lo, "--gamma-max", hi, "--qe", "0.5", "--alphae", "0.1",
        ]
    # q_E = 0.9 at alpha_E = 0.01 needs 44
    cases["estimate-error-too-few-tensors"] = [
        *estimate, "--gamma-min", "0.8", "--gamma-max", "1.25", "--qe", "0.9", "--alphae", "0.01",
    ]
    return cases


CASES = _cases()


def _workspace(root: Path) -> Path:
    write_tensor(np.array([0.5]), root / "x.mst1")
    (root / "oracle.json").write_text(
        json.dumps({"type": "threshold", "pixel_value": 0.5, "threshold": 0.25})
    )
    (root / "half.json").write_text(
        json.dumps({"type": "threshold", "pixel_value": 0.5, "threshold": 0.5})
    )
    # A 10-class linear model on an 8-bit 3x16x16 image, all entries in [0, 1]:
    # class 1 beats class 0 while sum(x**beta) stays above its value at
    # beta = 1.8, classes 2-9 lose, and random low bits give every weight a
    # full-width mantissa.
    rng = np.random.default_rng(2024)
    image = rng.integers(0, 256, (3, 16, 16)) / 255.0
    weights = 0.5 + rng.uniform(0.0, 1e-3, (10, image.size))
    weights[1] += 0.002
    weights[2:] -= 0.005
    bias = np.empty(10)
    bias[0] = 0.6
    bias[1] = 0.6 - 0.002 * float(np.sum(image**1.8))
    bias[2:] = rng.uniform(0.0, 0.5, 8)
    write_tensor(image, root / "image.mst1")
    write_tensor(weights, root / "weights.mst1")
    write_tensor(bias, root / "bias.mst1")
    (root / "linear.json").write_text(
        json.dumps({"weights": "weights.mst1", "bias": "bias.mst1", "classes": 10})
    )
    alpha, q_E, alpha_E = 0.001, 0.9, 0.01
    (root / "budget.json").write_text(json.dumps({
        "E": 0.5, "q_E": q_E, "alpha_E": alpha_E, "rho": alpha + (1.0 - q_E) + alpha_E,
        "gamma_interval": [0.71, 1.33],
    }))
    for sigma in SIGMAS_GAUSS:
        (root / f"realistic-sigma{sigma:g}.json").write_text(json.dumps({
            "n_eps": 50, "n_gamma": 20, "sigma_gauss": sigma, "alpha": alpha, "seed": 11,
        }))
    (root / "data").mkdir()
    for i in range(6):
        write_tensor(rng.integers(0, 256, (3, 6, 6)) / 255.0, root / "data" / f"t{i}.mst1")
    return root


def _render(argv: list[str], workspace: Path) -> dict:
    ws = str(workspace)
    with contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main([a.replace("<ws>", ws) for a in argv])
    out = stdout.getvalue()
    if out.startswith("{"):
        report = json.loads(out)
        del report["manifest"]["duration_s"]
        out = json.dumps(report, sort_keys=True, indent=2).replace(ws, "<ws>") + "\n"
    rendered = {"exit": code, "stdout": out}
    if stderr.getvalue():
        rendered["stderr"] = stderr.getvalue().replace(ws, "<ws>")
    return rendered


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_golden(case, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case]
    assert _render(CASES[case], _workspace(tmp_path)) == expected


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        workspace = _workspace(Path(tmp))
        recorded = {name: _render(argv, workspace) for name, argv in sorted(CASES.items())}
    changed = [name for name in sorted(set(previous) | set(recorded)) if previous.get(name) != recorded.get(name)]
    for name in changed:
        print(name)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDEN}, {len(changed)} changed")
