"""Golden CLI outputs: `cert`, `compare`, `table` and `smooth` byte for byte.

Every case runs the CLI in-process and compares its exit code and output with
``golden/cli.json``.  JSON reports are pinned without the manifest's
``duration_s`` (wall-clock time), with the workspace directory written as
``<ws>``.  Regenerate the file, after a deliberate output change only, with

    PYTHONPATH=src python tests/test_cli_golden.py
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
    return cases


CASES = _cases()


def _workspace(root: Path) -> Path:
    write_tensor(np.array([0.5]), root / "x.mst1")
    (root / "oracle.json").write_text(
        json.dumps({"type": "threshold", "pixel_value": 0.5, "threshold": 0.25})
    )
    return root


def _render(argv: list[str], workspace: Path) -> dict:
    ws = str(workspace)
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main([a.replace("<ws>", ws) for a in argv])
    out = stdout.getvalue()
    if out.startswith("{"):
        report = json.loads(out)
        del report["manifest"]["duration_s"]
        out = json.dumps(report, sort_keys=True, indent=2).replace(ws, "<ws>") + "\n"
    return {"exit": code, "stdout": out}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_golden(case, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case]
    assert _render(CASES[case], _workspace(tmp_path)) == expected


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        workspace = _workspace(Path(tmp))
        recorded = {name: _render(argv, workspace) for name, argv in sorted(CASES.items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDEN}")
