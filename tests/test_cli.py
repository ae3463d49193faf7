import argparse
import csv
import inspect
import io
import json
import math
import re
import subprocess
import sys
import typing
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from smoothcert import Certificate, ErrorBudget, Method, RealisticConfig, write_tensor
from smoothcert.cli import EXIT_ABSTAIN, EXIT_ERROR, EXIT_OK, _interval_cells, build_parser, main

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
SCHEMA_DIR = SRC_DIR / "smoothcert" / "schemas"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text())


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestTable:
    def test_emits_all_reference_rows(self, capsys):
        code, out, _ = run(capsys, ["table"])
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 8
        printed = [(r["pa"], r["pb"], r["gamma1"], r["gamma2"]) for r in rows]
        assert ("0.990", "0.010", "0.12", "2.58") in printed
        assert ("0.800", "0.200", "0.57", "1.52") in printed

    def test_full_precision_column_has_exact_identity(self, capsys):
        _, out, _ = run(capsys, ["table"])
        row = next(r for r in parse_csv(out) if r["pa"] == "0.600" and r["pb"] == "0.200")
        assert abs(float(row["gamma1_full"]) - 0.7071067811865476) < 1e-9

    def test_lf_line_endings(self, capsys):
        _, out, _ = run(capsys, ["table"])
        assert "\r" not in out

    def test_file_output_with_sidecar_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, ["table", "--out", str(out_path)])
        assert code == EXIT_OK
        assert out_path.exists()
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["command"] == "table"

    def test_sidecar_config_is_empty(self, capsys, tmp_path):
        """`table` takes no flag that shapes its rows, and where it writes is not configuration."""
        run(capsys, ["table", "--out", str(tmp_path / "table.csv")])
        assert json.loads((tmp_path / "table.csv.manifest.json").read_text())["config"] == {}


class TestCert:
    def test_reference_pair_plain_output(self, capsys):
        code, out, _ = run(capsys, ["cert", "--pa", "0.9", "--trivial-pb"])
        assert code == EXIT_OK
        assert "gamma1 0.3899" in out
        assert "gamma2 1.8226" in out

    def test_json_report_validates(self, capsys):
        code, out, _ = run(capsys, ["cert", "--pa", "0.9", "--trivial-pb", "--json"])
        assert code == EXIT_OK
        report = json.loads(out)
        jsonschema.validate(report, load_schema("report.schema.json"))
        jsonschema.validate(report["result"]["certificate"], load_schema("certificate.schema.json"))

    def test_abstain_exit_code(self, capsys):
        code, out, _ = run(capsys, ["cert", "--pa", "0.4", "--trivial-pb"])
        assert code == EXIT_ABSTAIN
        assert "abstain" in out

    def test_crossed_bounds_are_a_usage_error(self, capsys):
        code, _, err = run(capsys, ["cert", "--pa", "0.9", "--pb", "0.95"])
        assert code == EXIT_ERROR
        assert "error" in err

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cert", "--pa", "0.9", "--nonsense"])
        assert excinfo.value.code == EXIT_ERROR

    @pytest.mark.parametrize("runner_up", [["--pb", "0.05", "--trivial-pb"], []], ids=["both", "neither"])
    def test_exactly_one_runner_up_flag(self, capsys, runner_up):
        with pytest.raises(SystemExit) as excinfo:
            main(["cert", "--pa", "0.9", *runner_up])
        assert excinfo.value.code == EXIT_ERROR
        assert "--trivial-pb" in capsys.readouterr().err

    @pytest.mark.parametrize("dist", ["rayleigh", "inv-rayleigh", "log-gaussian", "log-laplace", "log-uniform"])
    @pytest.mark.parametrize("scale", ["0", "-3"])
    def test_nonpositive_scale_exits_one(self, capsys, dist, scale):
        code, out, err = run(capsys, ["cert", "--pa", "0.9", "--trivial-pb", "--dist", dist, "--scale", scale])
        assert code == EXIT_ERROR
        assert out == ""
        assert "scale" in err

    @pytest.mark.parametrize("pa", ["0", "1", "1.5"])
    def test_pa_outside_the_unit_interval_exits_one(self, capsys, pa):
        code, out, err = run(capsys, ["cert", "--pa", pa, "--trivial-pb"])
        TestRealisticCommand._assert_one_error_line(code, out, err, "--pa must lie in (0, 1)")

    def test_log_laplace_abstains_at_half(self, capsys):
        code, out, _ = run(capsys, ["cert", "--pa", "0.5", "--trivial-pb", "--dist", "log-laplace"])
        assert code == EXIT_ABSTAIN
        assert out.startswith("abstain:")

    @pytest.mark.parametrize("dist", ["rayleigh", "inv-rayleigh", "log-gaussian", "log-laplace", "log-uniform"])
    @pytest.mark.parametrize("pb", ["0", "1e-20"])
    def test_tightest_runner_up_bounds_certify(self, capsys, dist, pb):
        code, out, _ = run(capsys, ["cert", "--pa", "0.9", "--pb", pb, "--dist", dist, "--json"])
        assert code == EXIT_OK
        report = json.loads(out)
        jsonschema.validate(report, load_schema("report.schema.json"))
        cert = report["result"]["certificate"]
        jsonschema.validate(cert, load_schema("certificate.schema.json"))
        if pb == "0" and dist in ("rayleigh", "inv-rayleigh", "log-gaussian"):
            assert (cert["gamma1"], cert["gamma2"], cert["unbounded"]) == (0.0, None, True)

    @pytest.mark.parametrize(
        "flags",
        [["--pa", "0.999", "--pb", "0.05", "--dist", "log-gaussian"], ["--pa", "0.999", "--trivial-pb", "--dist", "log-laplace"]],
        ids=["log-gaussian", "log-laplace"],
    )
    def test_a_finite_radius_past_the_doubles_stays_bounded(self, capsys, flags):
        code, out, _ = run(capsys, ["cert", *flags, "--scale", "1e308", "--json"])
        assert code == EXIT_OK
        cert = json.loads(out)["result"]["certificate"]
        assert cert["gamma1"] == sys.float_info.min and cert["gamma2"] > 1e308 and cert["unbounded"] is False

    def test_log_space_distributions(self, capsys):
        code, out, _ = run(capsys, ["cert", "--pa", "0.9", "--trivial-pb", "--dist", "log-laplace", "--json"])
        assert code == EXIT_OK
        cert = json.loads(out)["result"]["certificate"]
        assert cert["method"] == "log-space"


class TestSmooth:
    def test_oracle_run_report(self, capsys, oracle_workspace):
        code, out, _ = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "oracle.json"),
                "--n", "5000", "--alpha", "0.001", "--seed", "11",
            ],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        jsonschema.validate(report, load_schema("report.schema.json"))
        assert report["result"]["label"] == 1
        assert report["result"]["certificate"]["gamma2"] <= 2.0
        assert report["manifest"]["seed"] == 11

    def test_rerun_produces_identical_result_payload(self, capsys, oracle_workspace):
        argv = [
            "smooth",
            "--input", str(oracle_workspace / "x.mst1"),
            "--classifier", str(oracle_workspace / "oracle.json"),
            "--n", "2000", "--alpha", "0.01", "--seed", "5",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        payload_a = json.dumps(json.loads(first)["result"], sort_keys=True)
        payload_b = json.dumps(json.loads(second)["result"], sort_keys=True)
        assert payload_a == payload_b

    def test_missing_tensor_exits_one(self, capsys, oracle_workspace):
        code, _, err = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "missing.mst1"),
                "--classifier", str(oracle_workspace / "oracle.json"),
                "--n", "1000", "--alpha", "0.01",
            ],
        )
        assert code == EXIT_ERROR
        assert "error" in err

    def test_invalid_sample_count_exits_one(self, capsys, oracle_workspace):
        code, _, err = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "oracle.json"),
                "--n", "0", "--alpha", "0.01",
            ],
        )
        assert code == EXIT_ERROR
        assert "n must be" in err

    def test_inverse_rayleigh_smoothing(self, capsys, oracle_workspace):
        code, out, _ = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "oracle.json"),
                "--n", "5000", "--alpha", "0.001", "--seed", "11",
                "--dist", "inv-rayleigh",
            ],
        )
        assert code == EXIT_OK
        cert = json.loads(out)["result"]["certificate"]
        assert cert["method"] == "reciprocal"
        assert cert["gamma1"] < 1.0 < cert["gamma2"]

    @pytest.mark.parametrize("dist", ["rayleigh", "inv-rayleigh", "log-gaussian", "log-laplace", "log-uniform"])
    @pytest.mark.parametrize("scale", ["0", "-3"])
    def test_nonpositive_scale_exits_one(self, capsys, oracle_workspace, dist, scale):
        code, out, err = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "oracle.json"),
                "--n", "1000", "--alpha", "0.01", "--dist", dist, "--scale", scale,
            ],
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert "scale" in err

    def test_negative_constant_label_exits_one(self, capsys, oracle_workspace):
        (oracle_workspace / "constant.json").write_text(json.dumps({"type": "constant", "label": -1}))
        code, out, err = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "constant.json"),
                "--n", "100", "--alpha", "0.01",
            ],
        )
        TestRealisticCommand._assert_one_error_line(code, out, err, "label", "-1")

    def test_hash_manifest_is_unrecognized(self, capsys, oracle_workspace):
        (oracle_workspace / "hash.json").write_text(json.dumps({"type": "hash", "classes": 10}))
        code, out, err = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "hash.json"),
                "--n", "100", "--alpha", "0.01",
            ],
        )
        TestRealisticCommand._assert_one_error_line(code, out, err, "hash.json", "unrecognized classifier manifest")

    @pytest.mark.parametrize(
        "manifest,field",
        [
            ({"type": "constant", "label": -1}, "'label'"),
            ({"type": "constant", "label": 2**63}, "'label'"),
            ({"type": "constant", "label": 1e300}, "'label'"),
        ],
        ids=["constant-label", "label-two-to-the-63", "label-1e300"],
    )
    def test_range_errors_name_the_manifest_and_field(self, capsys, oracle_workspace, manifest, field):
        (oracle_workspace / "ranged.json").write_text(json.dumps(manifest))
        code, out, err = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "ranged.json"),
                "--n", "100", "--alpha", "0.01",
            ],
        )
        TestRealisticCommand._assert_one_error_line(code, out, err, "ranged.json", field)

    @pytest.mark.parametrize(
        "dist,scale,n,exit_code",
        [
            ("log-laplace", "60", "1000000", EXIT_ABSTAIN),
            ("log-uniform", "1000", "1000", EXIT_ABSTAIN),
            ("inv-rayleigh", "1e308", "1000", EXIT_OK),
        ],
    )
    def test_factor_draws_that_underflow_to_zero_still_smooth(
        self, capsys, oracle_workspace, dist, scale, n, exit_code
    ):
        # some draws at these scales round to 0, outside every law's support
        code, out, err = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "oracle.json"),
                "--n", n, "--alpha", "0.001", "--dist", dist, "--scale", scale, "--seed", "0",
            ],
        )
        assert (code, err) == (exit_code, "")
        result = json.loads(out)["result"]
        assert (result["certificate"] is None) == (exit_code == EXIT_ABSTAIN)

    @pytest.mark.parametrize("dist", ["rayleigh", "inv-rayleigh"])
    def test_scaled_rayleigh_certificate_names_the_law_run(self, capsys, oracle_workspace, dist):
        code, out, _ = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "oracle.json"),
                "--n", "1000", "--alpha", "0.01", "--dist", dist, "--scale", "0.5",
            ],
        )
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert result["certificate"]["distribution"] == result["distribution"]
        assert result["distribution"].endswith("(sigma=0.5)")

    def test_infinite_sweep_limit_exits_one(self, capsys, oracle_workspace):
        code, out, err = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "oracle.json"),
                "--n", "200", "--alpha", "0.01", "--sweep", "--gamma-max", "inf",
            ],
        )
        TestRealisticCommand._assert_one_error_line(code, out, err, "gamma_max", "finite")

    def test_sweep_of_an_abstaining_input_is_empty(self, capsys, oracle_workspace):
        # the threshold sits at the clean pixel, so the exact smoothed
        # probability is 1/2: the clean prediction abstains and the sweep has
        # no label to keep
        (oracle_workspace / "half.json").write_text(
            json.dumps({"type": "threshold", "pixel_value": 0.5, "threshold": 0.5})
        )
        code, out, _ = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "half.json"),
                "--n", "200", "--alpha", "0.01", "--seed", "5", "--sweep",
            ],
        )
        assert code == EXIT_ABSTAIN
        report = json.loads(out)
        jsonschema.validate(report, load_schema("report.schema.json"))
        assert report["result"]["sweep"] == {"empty": True, "left": None, "right": None}

    def test_env_seed_default(self, capsys, oracle_workspace, monkeypatch):
        monkeypatch.setenv("SMOOTHCERT_SEED", "123")
        _, out, _ = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "oracle.json"),
                "--n", "1000", "--alpha", "0.01",
            ],
        )
        assert json.loads(out)["manifest"]["seed"] == 123

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_non_integer_env_seed_names_the_variable(self, capsys, oracle_workspace, monkeypatch, value):
        monkeypatch.setenv("SMOOTHCERT_SEED", value)
        code, out, err = run(
            capsys,
            [
                "smooth",
                "--input", str(oracle_workspace / "x.mst1"),
                "--classifier", str(oracle_workspace / "oracle.json"),
                "--n", "1000", "--alpha", "0.01",
            ],
        )
        TestRealisticCommand._assert_one_error_line(code, out, err, "SMOOTHCERT_SEED", repr(value))


class TestRealisticCommand:
    @pytest.fixture
    def workspace(self, oracle_workspace):
        budget = ErrorBudget.for_alpha(
            E=0.0, q_E=0.9, alpha_E=0.01, alpha=0.001, gamma_interval=(0.71, 1.33)
        )
        (oracle_workspace / "budget.json").write_text(json.dumps(budget.to_json()))
        cfg = RealisticConfig(n_eps=40, n_gamma=150, sigma_gauss=0.05, alpha=0.001, seed=3)
        (oracle_workspace / "config.json").write_text(json.dumps(cfg.to_json()))
        (oracle_workspace / "constant.json").write_text(json.dumps({"type": "constant", "label": 1}))
        return oracle_workspace

    def test_constant_classifier_certifies(self, capsys, workspace):
        code, out, _ = run(
            capsys,
            [
                "realistic",
                "--budget", str(workspace / "budget.json"),
                "--config", str(workspace / "config.json"),
                "--input", str(workspace / "x.mst1"),
                "--classifier", str(workspace / "constant.json"),
            ],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        jsonschema.validate(report, load_schema("report.schema.json"))
        cert = report["result"]["certificate"]
        assert 0.71 <= cert["gamma1"] <= 1.0 <= cert["gamma2"] <= 1.33

    def test_infeasible_budget_abstains_with_exit_two(self, capsys, workspace):
        budget = ErrorBudget.for_alpha(
            E=0.0, q_E=0.6, alpha_E=0.2, alpha=0.1, gamma_interval=(0.71, 1.33)
        )
        (workspace / "fat.json").write_text(json.dumps(budget.to_json()))
        cfg = RealisticConfig(n_eps=40, n_gamma=50, sigma_gauss=0.05, alpha=0.1, seed=3)
        (workspace / "fatcfg.json").write_text(json.dumps(cfg.to_json()))
        code, out, err = run(
            capsys,
            [
                "realistic",
                "--budget", str(workspace / "fat.json"),
                "--config", str(workspace / "fatcfg.json"),
                "--input", str(workspace / "x.mst1"),
                "--classifier", str(workspace / "constant.json"),
            ],
        )
        assert code == EXIT_ABSTAIN
        assert json.loads(out)["result"]["abstained"] is True
        assert "warning" in err
        # a config whose alpha the budget was not computed from is an error, with no warning before it
        mismatched = RealisticConfig(n_eps=40, n_gamma=50, sigma_gauss=0.05, alpha=0.01, seed=3)
        (workspace / "fatcfg.json").write_text(json.dumps(mismatched.to_json()))
        code, out, err = run(
            capsys,
            [
                "realistic",
                "--budget", str(workspace / "fat.json"),
                "--config", str(workspace / "fatcfg.json"),
                "--input", str(workspace / "x.mst1"),
                "--classifier", str(workspace / "constant.json"),
            ],
        )
        self._assert_one_error_line(code, out, err, "budget.rho=0.7", "does not match alpha=0.01")

    def test_budget_schema_validates_inputs(self, workspace):
        budget_doc = json.loads((workspace / "budget.json").read_text())
        jsonschema.validate(budget_doc, load_schema("budget.schema.json"))
        config_doc = json.loads((workspace / "config.json").read_text())
        jsonschema.validate(config_doc, load_schema("config.schema.json"))

    @pytest.mark.parametrize("record, name", [(ErrorBudget, "budget.schema.json"), (RealisticConfig, "config.schema.json")])
    def test_schema_fields_are_the_readers(self, record, name):
        # the reader takes a record's fields, in order, from its constructor
        schema = load_schema(name)
        params = inspect.signature(record, eval_str=True).parameters
        assert schema["required"] == list(params)
        assert list(schema["properties"]) == list(params)
        for field, param in params.items():
            prop = schema["properties"][field]
            if typing.get_origin(param.annotation) is tuple:
                assert (prop["type"], prop["items"]["type"], prop["minItems"], prop["maxItems"]) == ("array", "number", 2, 2)
            else:
                assert prop["type"] == {float: "number", int: "integer"}[param.annotation]

    def test_config_schema_takes_the_seeds_the_reader_takes(self, workspace):
        doc = json.loads((workspace / "config.json").read_text())
        schema = load_schema("config.schema.json")
        jsonschema.validate({**doc, "seed": 2**64 - 1}, schema)
        for seed in (-1, 2**64):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**doc, "seed": seed}, schema)

    def test_malformed_budget_exits_one(self, capsys, workspace):
        (workspace / "broken.json").write_text("{not json")
        code, _, err = run(
            capsys,
            [
                "realistic",
                "--budget", str(workspace / "broken.json"),
                "--config", str(workspace / "config.json"),
                "--input", str(workspace / "x.mst1"),
                "--classifier", str(workspace / "constant.json"),
            ],
        )
        assert code == EXIT_ERROR

    def _run_with(self, capsys, workspace, **replaced):
        """Run `realistic` with each named manifest ("budget", "config", "classifier") replaced.

        A replacement is a JSON value, or a str written as it is.
        """
        paths = {"budget": "budget.json", "config": "config.json", "classifier": "constant.json"}
        for role, doc in replaced.items():
            paths[role] = f"bad-{role}.json"
            (workspace / paths[role]).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return run(
            capsys,
            [
                "realistic",
                "--budget", str(workspace / paths["budget"]),
                "--config", str(workspace / paths["config"]),
                "--input", str(workspace / "x.mst1"),
                "--classifier", str(workspace / paths["classifier"]),
            ],
        )

    @staticmethod
    def _assert_one_error_line(code, out, err, *named):
        assert code == EXIT_ERROR
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("smoothcert: error: ")
        assert all(word in lines[0] for word in named)

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda doc: [1, 2], "bad-budget.json"),
            (lambda doc: {**doc, "E": None}, "'E'"),
            (lambda doc: {**doc, "q_E": "0.9"}, "'q_E'"),
            (lambda doc: {**doc, "gamma_interval": 0.8}, "'gamma_interval'"),
            (lambda doc: {**doc, "gamma_interval": [0.7, None]}, "'gamma_interval'"),
            (lambda doc: {k: v for k, v in doc.items() if k != "rho"}, "'rho'"),
            (lambda doc: {**doc, "E": 10**400}, "'E'"),
            (lambda doc: {**doc, "gamma_interval": [0.7, math.inf]}, "'gamma_interval'"),
            (lambda doc: {**doc, "E": -1.0}, "E must be nonnegative"),
            (lambda doc: {**doc, "gamma_interval": [1.1, 1.25]}, "gamma_interval must straddle 1"),
            (lambda doc: {**doc, "bogus": 1}, "'bogus'"),
            (lambda doc: {**doc, "q_E": 1.0}, "q_E must lie in (0, 1)"),
            (lambda doc: {**doc, "alpha_E": 0.0}, "alpha_E must lie in (0, 1)"),
            (lambda doc: {**doc, "rho": -0.5}, "rho must be nonnegative"),
        ],
        ids=[
            "list", "null", "string", "scalar-interval", "null-in-interval", "missing",
            "beyond-double-range", "infinite-in-interval", "negative-E", "interval-above-one", "unknown-field",
            "q_E-one", "alpha_E-zero", "negative-rho",
        ],
    )
    def test_malformed_budget_field_exits_one(self, capsys, workspace, edit, field):
        doc = edit(json.loads((workspace / "budget.json").read_text()))
        self._assert_one_error_line(*self._run_with(capsys, workspace, budget=doc), "bad-budget.json", field)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_eps", None), ("n_gamma", 50.7), ("seed", True), ("sigma_gauss", [0.05]), ("sigma_gauss", math.inf),
            ("bogus", 1),
        ],
    )
    def test_malformed_config_field_exits_one(self, capsys, workspace, field, value):
        doc = {**json.loads((workspace / "config.json").read_text()), field: value}
        self._assert_one_error_line(
            *self._run_with(capsys, workspace, config=doc), "bad-config.json", repr(field)
        )

    def test_integral_float_count_reads_as_its_integer(self, capsys, workspace):
        doc = json.loads((workspace / "config.json").read_text())
        code, out, _ = self._run_with(capsys, workspace, config={**doc, "n_gamma": 150.0})
        assert code == EXIT_OK
        assert json.loads(out)["manifest"]["config"]["config"]["n_gamma"] == 150

    @pytest.mark.parametrize(
        "doc,field",
        [
            ([], "bad-classifier.json"),
            ({"type": "threshold", "pixel_value": None, "threshold": 0.25}, "'pixel_value'"),
            ({"type": "constant", "label": 1.5}, "'label'"),
            ({"type": "constant", "label": "3"}, "'label'"),
            ({"type": "constant", "label": 2**63}, "'label'"),
            ({"type": "constant", "label": 1e300}, "'label'"),
            ({"weights": None, "bias": "b.mst1", "classes": 2}, "'weights'"),
            ({"type": []}, "unrecognized"),
            ({"type": "constant", "label": 1, "bogus": 1}, "'bogus'"),
            ({"type": "constant", "label": 1, "classes": 3}, "'classes'"),
            ({"type": "linear", "weights": "w.mst1", "bias": "b.mst1", "classes": 2}, "'type'"),
        ],
        ids=[
            "list", "null", "fraction", "string", "two-to-the-63", "1e300", "null-path", "unhashable-type",
            "unknown-field", "field-of-another-classifier", "tagged-linear",
        ],
    )
    def test_malformed_classifier_field_exits_one(self, capsys, workspace, doc, field):
        result = self._run_with(capsys, workspace, classifier=doc)
        self._assert_one_error_line(*result, "bad-classifier.json", field)

    @pytest.mark.parametrize("role", ["budget", "config", "classifier"])
    @pytest.mark.parametrize("text", ["{not json", '{"E": 1,}'], ids=["syntax", "trailing-comma"])
    def test_unreadable_manifest_names_its_file(self, capsys, workspace, role, text):
        self._assert_one_error_line(*self._run_with(capsys, workspace, **{role: text}), f"bad-{role}.json")

    def test_out_of_range_config_field_names_the_file_and_field(self, capsys, workspace):
        doc = {**json.loads((workspace / "config.json").read_text()), "n_eps": 0}
        self._assert_one_error_line(
            *self._run_with(capsys, workspace, config=doc), "bad-config.json", "n_eps must be positive"
        )

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "two-to-the-64"])
    def test_out_of_range_config_seed_names_the_file(self, capsys, workspace, seed):
        doc = {**json.loads((workspace / "config.json").read_text()), "seed": seed}
        self._assert_one_error_line(
            *self._run_with(capsys, workspace, config=doc), "bad-config.json", "seed must be a 64-bit unsigned integer"
        )


class TestEstimateError:
    def test_binary_dataset_gives_zero(self, capsys, tmp_path):
        dataset = tmp_path / "data"
        dataset.mkdir()
        rng = np.random.default_rng(1)
        for i in range(30):
            write_tensor(rng.integers(0, 2, size=6).astype(float), dataset / f"t{i:02d}.mst1")
        code, out, _ = run(
            capsys,
            [
                "estimate-error",
                "--dataset", str(dataset),
                "--gamma-min", "0.71", "--gamma-max", "1.33",
                "--qe", "0.9", "--alphae", "0.05", "--seed", "2",
            ],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        jsonschema.validate(report, load_schema("report.schema.json"))
        assert report["result"]["E"] == 0.0

    def test_infinite_interval_end_exits_one(self, capsys, tmp_path):
        dataset = tmp_path / "data"
        dataset.mkdir()
        rng = np.random.default_rng(1)
        for i in range(50):
            write_tensor(rng.uniform(0.0, 1.0, (4, 4)), dataset / f"t{i:02d}.mst1")
        argv = ["estimate-error", "--dataset", str(dataset), "--gamma-min", "0.9", "--qe", "0.9", "--alphae", "0.05"]
        code, out, err = run(capsys, [*argv, "--gamma-max", "inf"])
        assert code == EXIT_ERROR
        assert out == ""
        assert "gamma interval" in err

    def test_interval_above_one_exits_one(self, capsys, tmp_path):
        # the rule ErrorBudget reads: an E measured on (1.1, 1.3) could never
        # enter a budget
        dataset = tmp_path / "data"
        dataset.mkdir()
        rng = np.random.default_rng(1)
        for i in range(50):
            write_tensor(rng.uniform(0.0, 1.0, (4, 4)), dataset / f"t{i:02d}.mst1")
        argv = ["estimate-error", "--dataset", str(dataset), "--qe", "0.9", "--alphae", "0.05"]
        code, out, err = run(capsys, [*argv, "--gamma-min", "1.1", "--gamma-max", "1.3"])
        assert code == EXIT_ERROR
        assert out == ""
        assert "gamma interval must straddle 1" in err

    def test_too_few_tensors_for_the_quantile_bound_exit_one(self, capsys, tmp_path):
        # at q_E = 0.1, alpha_E = 0.01 the largest of two maxima is no bound:
        # P(Bin(2, 0.1) >= 2) rounds above 0.01, so three tensors are needed
        dataset = tmp_path / "data"
        dataset.mkdir()
        rng = np.random.default_rng(2)
        for i in range(2):
            write_tensor(rng.uniform(0.0, 1.0, (3, 6, 6)), dataset / f"t{i}.mst1")
        argv = ["estimate-error", "--dataset", str(dataset), "--gamma-min", "0.71", "--gamma-max", "1.33"]
        code, out, err = run(capsys, [*argv, "--qe", "0.1", "--alphae", "0.01"])
        assert code == EXIT_ERROR
        assert out == ""
        assert "need >= 3" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--qe", "1.0", "q_E must lie in (0, 1), got 1.0"), ("--alphae", "0.0", "alpha_E must lie in (0, 1), got 0.0")],
        ids=["qe", "alphae"],
    )
    def test_out_of_range_rate_names_its_parameter_and_value(self, capsys, tmp_path, flag, value, message):
        dataset = tmp_path / "data"
        dataset.mkdir()
        write_tensor(np.full(4, 0.5), dataset / "t.mst1")
        argv = ["estimate-error", "--dataset", str(dataset), "--gamma-min", "0.71", "--gamma-max", "1.33"]
        code, out, err = run(capsys, [*argv, "--qe", "0.9", "--alphae", "0.05", flag, value])
        TestRealisticCommand._assert_one_error_line(code, out, err, message)

    def test_missing_dataset_exits_one(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "estimate-error",
                "--dataset", str(tmp_path / "nope"),
                "--gamma-min", "0.9", "--gamma-max", "1.1",
                "--qe", "0.9", "--alphae", "0.05",
            ],
        )
        assert code == EXIT_ERROR
        (tmp_path / "empty").mkdir()
        argv = ["estimate-error", "--dataset", str(tmp_path / "empty"), "--gamma-min", "0.9", "--gamma-max", "1.1"]
        code, out, err = run(capsys, [*argv, "--qe", "0.9", "--alphae", "0.05"])
        TestRealisticCommand._assert_one_error_line(code, out, err, "no .mst1 tensors")


def test_manifest_config_keys_are_the_parser_destinations(capsys, oracle_workspace):
    """Every command's manifest config holds its parsed flags, save those recorded elsewhere or not at all."""
    ws = oracle_workspace
    budget = ErrorBudget.for_alpha(E=0.0, q_E=0.9, alpha_E=0.01, alpha=0.001, gamma_interval=(0.71, 1.33))
    (ws / "budget.json").write_text(json.dumps(budget.to_json()))
    cfg = RealisticConfig(n_eps=20, n_gamma=20, sigma_gauss=0.05, alpha=0.001, seed=3)
    (ws / "config.json").write_text(json.dumps(cfg.to_json()))
    (ws / "data").mkdir()
    for i in range(4):  # q_E = 0.5 at alpha_E = 0.1 needs 4 tensors
        write_tensor(np.full(3, 0.2 * (i + 1)), ws / "data" / f"t{i}.mst1")
    smooth = ["--input", str(ws / "x.mst1"), "--classifier", str(ws / "oracle.json")]
    argv = {
        "table": ["table", "--out", str(ws / "table.csv")],
        "cert": ["cert", "--pa", "0.9", "--trivial-pb", "--json"],
        "smooth": ["smooth", *smooth, "--n", "200", "--alpha", "0.01"],
        "realistic": ["realistic", *smooth, "--budget", str(ws / "budget.json"), "--config", str(ws / "config.json")],
        "estimate-error": [
            "estimate-error", "--dataset", str(ws / "data"), "--gamma-min", "0.8", "--gamma-max", "1.25",
            "--qe", "0.5", "--alphae", "0.1", "--grid", "4",
        ],
        "compare": ["compare", "--out", str(ws / "compare.csv")],
    }
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(argv) == set(commands)
    for name, parser in commands.items():
        code, out, _ = run(capsys, argv[name])
        assert code in (EXIT_OK, EXIT_ABSTAIN), name
        if "--out" in argv[name]:  # a CSV command: the manifest is the sidecar
            manifest = json.loads(Path(f"{argv[name][-1]}.manifest.json").read_text())
        else:
            manifest = json.loads(out)["manifest"]
        dests = {action.dest for action in parser._actions} - {"help", "seed", "out", "json"}
        assert set(manifest["config"]) == dests, name


@pytest.mark.parametrize("command", ["smooth", "realistic", "estimate-error"])
def test_json_report_to_a_file_is_the_stdout_report(capsys, oracle_workspace, command):
    """``--out`` moves the JSON report from stdout to the file; only the wall-clock duration differs."""
    ws = oracle_workspace
    budget = ErrorBudget.for_alpha(E=0.0, q_E=0.9, alpha_E=0.01, alpha=0.001, gamma_interval=(0.71, 1.33))
    (ws / "budget.json").write_text(json.dumps(budget.to_json()))
    cfg = RealisticConfig(n_eps=20, n_gamma=20, sigma_gauss=0.05, alpha=0.001, seed=3)
    (ws / "config.json").write_text(json.dumps(cfg.to_json()))
    (ws / "data").mkdir()
    for i in range(4):  # q_E = 0.5 at alpha_E = 0.1 needs 4 tensors
        write_tensor(np.full(3, 0.2 * (i + 1)), ws / "data" / f"t{i}.mst1")
    smooth = ["--input", str(ws / "x.mst1"), "--classifier", str(ws / "oracle.json")]
    argv = {
        "smooth": ["smooth", *smooth, "--n", "200", "--alpha", "0.01", "--seed", "4"],
        "realistic": ["realistic", *smooth, "--budget", str(ws / "budget.json"), "--config", str(ws / "config.json")],
        "estimate-error": [
            "estimate-error", "--dataset", str(ws / "data"), "--gamma-min", "0.8", "--gamma-max", "1.25",
            "--qe", "0.5", "--alphae", "0.1", "--grid", "4",
        ],
    }[command]
    code, printed, _ = run(capsys, argv)
    file_code, file_out, _ = run(capsys, [*argv, "--out", str(ws / "report.json")])
    assert (file_code, file_out) == (code, "")

    def timeless(text: str) -> str:
        return re.sub(r'"duration_s": [^,\n]+', '"duration_s": 0', text)

    assert timeless((ws / "report.json").read_text()) == timeless(printed)


class TestCompare:
    def test_unbounded_right_end_reads_inf(self):
        cert = Certificate(0.125, math.inf, Method.LOG_SPACE, "d", 1.0)
        assert _interval_cells(cert) == ["0.12", "inf", "0.125", "inf"]

    def test_reference_row_and_matched_baseline(self, capsys):
        code, out, _ = run(capsys, ["compare", "--pa-grid", "0.9"])
        assert code == EXIT_OK
        rows = parse_csv(out)
        by_dist = {r["distribution"]: r for r in rows}
        assert by_dist["rayleigh"]["gamma1"] == "0.39"
        assert by_dist["rayleigh"]["gamma2"] == "1.82"
        assert "log-gaussian-matched" in by_dist
        matched = by_dist["log-gaussian-matched"]
        # matched baseline shares the right endpoint but has a larger left one
        assert matched["gamma2"] == "1.82"
        assert float(matched["gamma1_full"]) > float(by_dist["rayleigh"]["gamma1_full"])

    @pytest.mark.parametrize("pa, matched", [("0.50000000000001", False), ("0.5000000000001", True)])
    def test_matched_row_needs_a_rayleigh_right_end_above_one(self, capsys, pa, matched):
        # just above 1/2 the Rayleigh right end rounds to exactly 1, which
        # no log-Gaussian scale matches
        code, out, err = run(capsys, ["compare", "--pa-grid", pa])
        assert (code, err) == (EXIT_OK, "")
        by_dist = {r["distribution"]: r for r in parse_csv(out)}
        assert ("log-gaussian-matched" in by_dist) is matched
        assert (float(by_dist["rayleigh"]["gamma2_full"]) > 1.0) is matched

    def test_grid_spec_parsing(self, capsys):
        code, out, _ = run(capsys, ["compare", "--pa-grid", "0.6:0.9:4", "--dists", "rayleigh", "--no-matched"])
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 4
        assert [r["pa"] for r in rows] == ["0.6", "0.7", "0.8", "0.9"]

    @pytest.mark.parametrize("dists", ["rayleigh", "rayleigh,inv-rayleigh", "log-gaussian"])
    @pytest.mark.parametrize("scale", ["0", "-1", "inf"])
    def test_nonpositive_scale_exits_one(self, capsys, dists, scale):
        code, out, err = run(capsys, ["compare", "--dists", dists, "--scale", scale])
        assert code == EXIT_ERROR
        assert out == ""
        assert "scale" in err

    @pytest.mark.parametrize("flag", ["--pa-grid", "--dists"])
    def test_empty_list_exits_one(self, capsys, flag):
        code, out, err = run(capsys, ["compare", flag, ""])
        assert code == EXIT_ERROR
        assert out == ""
        assert "at least one" in err

    @pytest.mark.filterwarnings("error")  # a numpy warning on a non-finite range end would be a second line
    @pytest.mark.parametrize("spec", ["0.6:0.9:2.5", "0.6:0.9:inf", "0.6,abc", "inf:0.9:2", "0.6:-inf:3", "nan:0.9:2"])
    def test_malformed_grid_names_the_flag_and_its_form(self, capsys, spec):
        code, out, err = run(capsys, ["compare", "--pa-grid", spec])
        TestRealisticCommand._assert_one_error_line(code, out, err, "--pa-grid", "start:stop:count", repr(spec))

    @pytest.mark.parametrize("spec", ["1.0", "0.5:1.5:3", "0.9,0"])
    def test_pa_grid_value_outside_the_unit_interval_exits_one(self, capsys, spec):
        code, out, err = run(capsys, ["compare", "--pa-grid", spec])
        TestRealisticCommand._assert_one_error_line(code, out, err, "pa grid values must lie in (0, 1)")

    def test_bad_distribution_exits_one(self, capsys):
        code, _, err = run(capsys, ["compare", "--dists", "cauchy"])
        assert code == EXIT_ERROR
        assert "unknown distributions" in err


@pytest.mark.parametrize(
    "argv, clamped",
    [
        (["cert", "--pa", "0.9", "--pb", "0.1", "--dist", "log-gaussian", "--scale", "600"], "gamma1 0.0000\n"),
        (["compare", "--pa-grid", "0.6", "--scale", "1e308"], ",2.2250738585072014e-308,1.7976931348622724e+308\n"),
    ],
    ids=["cert", "compare"],
)
def test_log_space_scales_beyond_the_doubles_print_a_result(capsys, argv, clamped):
    # an ln-radius past ln(DBL_MAX) clamps the endpoints instead of raising
    code, out, err = run(capsys, argv)
    assert code == EXIT_OK
    assert err == ""
    assert clamped in out


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a quarter second of start-up; nothing needs it
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import smoothcert.cli; "
        "print('scipy.stats' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC_DIR)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "False"
