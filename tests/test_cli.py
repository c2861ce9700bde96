from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from specter.artifacts import parse_plan
from specter.cli import BENCH_HEADER, main

from .conftest import MODEL_DEFECTS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def built_model(tmp_path_factory):
    """Factory-cell model built once per module."""
    out = tmp_path_factory.mktemp("models") / "factory.json"
    result = CliRunner().invoke(main, ["build", str(SCENARIOS / "factory_cell.json"), str(out)])
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def failed_model(built_model, tmp_path_factory):
    """Factory-cell model with the R2 dock-exit failure injected."""
    out = tmp_path_factory.mktemp("models") / "factory_failed.json"
    result = CliRunner().invoke(
        main,
        [
            "inject",
            str(built_model),
            str(out),
            "--agent",
            "R2",
            "--from",
            "Psi",
            "--to",
            "A",
        ],
    )
    assert result.exit_code == 0, result.output
    return out


class TestBuild:
    def test_reports_states_and_time(self, built_model, runner, tmp_path):
        result = runner.invoke(main, ["build", str(SCENARIOS / "factory_cell.json"), str(tmp_path / "m.json")])
        assert result.exit_code == 0
        assert "states: 560" in result.output
        assert "preprocess_s:" in result.output

    def test_invalid_file_exit_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = runner.invoke(main, ["build", str(bad), str(tmp_path / "out.json")])
        assert result.exit_code == 1

    def test_diagnostics_on_stderr(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "agents": [], "initial": {}, "task": {}}))
        result = runner.invoke(main, ["build", str(bad), str(tmp_path / "out.json")])
        assert result.exit_code == 1

    def test_unwritable_output_exit_1(self, runner, tmp_path):
        out = tmp_path / "missing" / "m.json"
        result = runner.invoke(main, ["build", str(SCENARIOS / "factory_cell.json"), str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: cannot write {out}" in result.output

    def test_rebuild_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert runner.invoke(main, ["build", str(SCENARIOS / "factory_cell.json"), str(a)]).exit_code == 0
        assert runner.invoke(main, ["build", str(SCENARIOS / "factory_cell.json"), str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()


class TestPlan:
    INITIAL = "R1=E,R2=Psi,W1=Gamma,I1=A"

    def test_heuristic_plan(self, failed_model, runner):
        result = runner.invoke(
            main,
            ["plan", str(failed_model), "--initial", self.INITIAL, "--task", "I1=B", "--solver", "heuristic"],
        )
        assert result.exit_code == 0, result.output
        doc = parse_plan(result.stdout)
        assert len(doc.modules) == 6
        assert doc.total_cost == 55.0

    def test_complete_matches_heuristic_here(self, failed_model, runner):
        heuristic = runner.invoke(
            main,
            ["plan", str(failed_model), "--initial", self.INITIAL, "--task", "I1=B", "--solver", "heuristic"],
        )
        complete = runner.invoke(
            main,
            ["plan", str(failed_model), "--initial", self.INITIAL, "--task", "I1=B", "--solver", "complete"],
        )
        assert complete.exit_code == 0
        doc_h = parse_plan(heuristic.stdout)
        doc_c = parse_plan(complete.stdout)
        assert doc_h.modules == doc_c.modules

    def test_tuple_initial_form(self, failed_model, runner):
        result = runner.invoke(
            main,
            ["plan", str(failed_model), "--initial", "E|Psi|Gamma|A", "--task", "I1=B"],
        )
        assert result.exit_code == 0

    def test_initial_already_satisfying(self, failed_model, runner):
        result = runner.invoke(
            main,
            ["plan", str(failed_model), "--initial", "E|Psi|Gamma|B", "--task", "I1=B"],
        )
        assert result.exit_code == 0
        doc = parse_plan(result.stdout)
        assert doc.modules == ()
        assert doc.total_cost == 0.0

    def test_infeasible_exit_3(self, failed_model, runner):
        # After the dock failure R2 can never reach B.
        result = runner.invoke(
            main,
            ["plan", str(failed_model), "--initial", self.INITIAL, "--task", "R2=B", "--solver", "complete"],
        )
        assert result.exit_code == 3

    def test_heuristic_failure_exit_4(self, failed_model, runner):
        result = runner.invoke(
            main,
            ["plan", str(failed_model), "--initial", self.INITIAL, "--task", "R2=B", "--solver", "heuristic"],
        )
        assert result.exit_code == 4

    def test_unknown_model_exit_1(self, runner, tmp_path):
        bogus = tmp_path / "not_a_model.json"
        bogus.write_text("{}")
        result = runner.invoke(main, ["plan", str(bogus), "--initial", "A", "--task", "x=B"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
    def test_malformed_model_exit_1(self, built_model, runner, tmp_path, defect):
        doc = json.loads(Path(built_model).read_text())
        MODEL_DEFECTS[defect](doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["plan", str(bad), "--initial", self.INITIAL, "--task", "I1=B"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "malformed model document" in result.output

    def test_out_file(self, failed_model, runner, tmp_path):
        out = tmp_path / "plan.json"
        result = runner.invoke(
            main,
            ["plan", str(failed_model), "--initial", self.INITIAL, "--task", "I1=B", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert parse_plan(out.read_text()).total_cost == 55.0

    def test_unwritable_out_file_exit_1(self, failed_model, runner, tmp_path):
        out = tmp_path / "missing" / "plan.json"
        result = runner.invoke(
            main,
            ["plan", str(failed_model), "--initial", self.INITIAL, "--task", "I1=B", "--out", str(out)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: cannot write {out}" in result.output


class TestInject:
    def test_reports_removed_count(self, built_model, runner, tmp_path):
        out = tmp_path / "patched.json"
        result = runner.invoke(
            main,
            ["inject", str(built_model), str(out), "--agent", "R2", "--from", "Psi", "--to", "A"],
        )
        assert result.exit_code == 0
        assert "transitions_removed: 140" in result.output

    def test_unwritable_output_exit_1(self, built_model, runner, tmp_path):
        out = tmp_path / "missing" / "patched.json"
        result = runner.invoke(
            main,
            ["inject", str(built_model), str(out), "--agent", "R2", "--from", "Psi", "--to", "A"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: cannot write {out}" in result.output

    def test_noop_injection(self, built_model, runner, tmp_path):
        out = tmp_path / "same.json"
        # R2 has no Delta->A move, so nothing matches.
        result = runner.invoke(
            main,
            ["inject", str(built_model), str(out), "--agent", "R2", "--from", "Delta", "--to", "A"],
        )
        assert result.exit_code == 0
        assert "transitions_removed: 0" in result.output
        assert out.read_bytes() == Path(built_model).read_bytes()

    def test_unknown_agent_exit_2(self, built_model, runner, tmp_path):
        result = runner.invoke(
            main,
            ["inject", str(built_model), str(tmp_path / "x.json"), "--agent", "R9", "--from", "A", "--to", "B"],
        )
        assert result.exit_code == 2

    def test_unknown_state_exit_2(self, built_model, runner, tmp_path):
        result = runner.invoke(
            main,
            ["inject", str(built_model), str(tmp_path / "x.json"), "--agent", "R2", "--from", "Nope", "--to", "A"],
        )
        assert result.exit_code == 2

    def test_removed_bound(self, built_model, runner, tmp_path):
        # theta' for R2 = 5 * 4 * 7 = 140
        out = tmp_path / "patched.json"
        result = runner.invoke(
            main,
            ["inject", str(built_model), str(out), "--agent", "R2", "--from", "Psi", "--to", "A"],
        )
        removed = int(result.output.split("transitions_removed:")[1].strip())
        assert removed <= 5 * 4 * 7


class TestExport:
    def test_model_export_has_all_states(self, built_model, runner):
        result = runner.invoke(main, ["export", str(built_model), "--format", "dot"])
        assert result.exit_code == 0
        assert result.output.count("doublecircle") == 560

    def test_plan_export(self, failed_model, runner, tmp_path):
        plan_path = tmp_path / "plan.json"
        runner.invoke(
            main,
            ["plan", str(failed_model), "--initial", "R1=E,R2=Psi,W1=Gamma,I1=A", "--task", "I1=B", "--out", str(plan_path)],
        )
        result = runner.invoke(main, ["export", str(plan_path)])
        assert result.exit_code == 0
        assert result.output.count("->") == 7  # 6 modules + dashed closing edge
        assert "style=dashed" in result.output

    def test_unreadable_exit_1(self, runner, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("hello")
        result = runner.invoke(main, ["export", str(junk)])
        assert result.exit_code == 1


class TestBench:
    def test_header_only_with_zero_trials(self, runner):
        result = runner.invoke(main, ["bench", "--trials", "0"])
        assert result.exit_code == 0
        assert result.output.strip() == ",".join(BENCH_HEADER)

    def test_rows_and_cost_dominance(self, runner):
        result = runner.invoke(main, ["bench", "--agents", "3", "--states", "3", "--seed", "1", "--trials", "6"])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 6
        for row in rows:
            if row["complete_cost"] and row["heuristic_cost"]:
                assert float(row["complete_cost"]) <= float(row["heuristic_cost"])

    def test_cap_violation_exit_1(self, runner):
        result = runner.invoke(main, ["bench", "--agents", "6", "--states", "32", "--trials", "1"])
        assert result.exit_code == 1

    def test_scenario_mode(self, runner):
        result = runner.invoke(
            main,
            ["bench", "--scenario", str(SCENARIOS / "factory_cell.json"), "--trials", "2"],
        )
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 2
        assert all(row["states"] == "560" for row in rows)
        for row in rows:
            assert float(row["complete_cost"]) == 55.0
            assert float(row["heuristic_cost"]) == 55.0

    def test_scenario_composition_error_exit_2(self, runner, tmp_path):
        doc = json.loads((SCENARIOS / "workflow_small.json").read_text())
        doc["options"] = {"template_cap": 1}
        capped = tmp_path / "capped.json"
        capped.write_text(json.dumps(doc))
        result = runner.invoke(main, ["bench", "--scenario", str(capped), "--trials", "1"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "error: templates expand to 13248 events, cap is 1" in result.output
