"""Task parsing, report structure, emission formats, CLI exit codes."""

import json

import pytest

from prokit.errors import BoundViolation, ParseError, UnknownReference
from prokit.cli import main
from prokit.tasks import emit_report, parse_spec, run_task


MINIMAL = {
    "schema": 1,
    "ring": {"kind": "zmod", "m": 8},
    "sequences": {"xs": [2]},
    "analysis": {"kind": "profile", "profile": "lipman", "sequence": "xs"},
    "bounds": {"n_max": 3},
    "seed": 7,
}


def task_text(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_minimal_defaults():
    task = parse_spec(task_text())
    assert task.ring.order() == 8
    assert task.seed == 7
    assert "M" in task.modules  # default module filled in
    assert [e.coords for e in task.sequences["xs"]] == [(2,)]


def test_parse_unknown_reference():
    with pytest.raises(UnknownReference):
        parse_spec(task_text(sequences={"xs": ["ghost"]}))


def test_parse_bad_schema():
    with pytest.raises(ParseError):
        parse_spec(task_text(schema=99))


def test_parse_bound_violation():
    with pytest.raises(BoundViolation):
        parse_spec(task_text(bounds={"n_max": 0}))


def test_parse_family_sweep_spec():
    text = json.dumps(
        {
            "schema": 1,
            "family": {
                "kind": "truncated_two_power",
                "range": [2, 4],
                "sequences": [["x", "one"]],
            },
            "analysis": {"kind": "sweep"},
            "bounds": {"n_max": 2},
            "seed": 3,
        }
    )
    task = parse_spec(text)
    assert task.family is not None
    assert task.sequences["_family"] == [["x", "one"]]


def test_profile_task_single_element_law():
    task = parse_spec(task_text())
    report = run_task(task)
    rows = report.body["results"]["lipman"]["rows"]
    got = {(i, n): m for i, n, m, _ in rows}
    assert got == {(1, 1): 4, (1, 2): 5, (1, 3): 6}
    assert report.exit_code == 0


def test_profile_weak_zero_imax_rejected():
    with pytest.raises(BoundViolation):
        parse_spec(
            task_text(
                analysis={"kind": "profile", "profile": "weak", "sequence": "xs"},
                bounds={"n_max": 2, "i_max": 0},
            )
        )


def test_report_roundtrip_json():
    task = parse_spec(task_text())
    report = run_task(task)
    doc = json.loads(emit_report(report, "json").decode())
    assert doc["results"] == report.body["results"]
    assert doc["task"] == json.loads(task_text())


def test_report_determinism_same_seed():
    a = run_task(parse_spec(task_text()))
    b = run_task(parse_spec(task_text()))
    assert a.body_bytes() == b.body_bytes()


def test_csv_row_count():
    task = parse_spec(task_text())
    report = run_task(task)
    lines = emit_report(report, "csv").decode().strip().splitlines()
    data_rows = [l for l in lines if l and not l.startswith(("#", "i,"))]
    assert len(data_rows) == 1 * 3  # k * n_max
    assert lines[0] == "i,n,m,conclusive"


def test_inconclusive_exit_code_2():
    task = parse_spec(task_text(bounds={"n_max": 2, "m_max": 2}))
    report = run_task(task)
    assert report.exit_code == 2


def test_verify_battery_z12(capsys):
    code = main(["check", "fixture:z12_battery", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out


def test_cli_profile_fixture(capsys):
    code = main(["profile", "fixture:prism_style", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("i,n,m,conclusive")


def test_cli_usage_error_missing_file(capsys):
    code = main(["check", "/nonexistent/task.json"])
    assert code == 64


def test_cli_sweep_on_non_family_is_usage_error(capsys):
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(task_text())
        path = fh.name
    try:
        assert main(["sweep", path]) == 64
    finally:
        os.unlink(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "fixture:z12_battery", "--bogus"],
        [],
        ["check", "fixture:z12_battery", "--seed", "x"],
        ["check", "fixture:z12_battery", "--format", "xml"],
        ["check", "fixture:z12_battery", "--jobs", "2"],
        ["sweep", "fixture:ex1_truncated", "--jobs", "2"],
    ],
)
def test_cli_argument_errors_exit_64(argv, capsys):
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("prokit: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{",
        b"[1, 2]",
        task_text(
            analysis={"kind": "verify", "sequence": "xs", "checks": ["no_such_check"]}
        ).encode(),
    ],
    ids=["not_utf8", "top_level_array", "unknown_check"],
)
def test_cli_bad_task_file_exits_64(content, tmp_path, capsys):
    path = tmp_path / "task.json"
    path.write_bytes(content)
    assert main(["check", str(path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("prokit: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_lipman_forms_disagreement_is_a_failed_check(monkeypatch):
    import prokit.analysis as analysis

    real = analysis.span_leq
    monkeypatch.setattr(analysis, "span_leq", lambda *args: not real(*args))
    text = task_text(analysis={"kind": "verify", "sequence": "xs", "checks": ["profiles"]})
    report = run_task(parse_spec(text))
    assert report.exit_code == 1
    profiles = report.body["results"]["profiles"]
    assert profiles["passed"] is False
    assert profiles["error"].startswith("IdentificationFailure: ")


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "usage: prokit check" in capsys.readouterr().out


def test_cli_seed_override(capsys):
    code = main(["check", "fixture:prism_style", "--seed", "99", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_sweep_fixture_ex1(capsys):
    code = main(["sweep", "fixture:ex1_truncated", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    seqs = {tuple(s["sequence"]): s for s in out["results"]["sequences"]}
    assert seqs[("x",)]["tracked"]["entry_1_1"] == [3, 4, 5, 6, 7]
    assert seqs[("x",)]["divergence"]["entry_1_1"]
    assert seqs[("one", "x")]["bounded"]["profile_entries"]


def test_axioms_task():
    text = task_text(analysis={"kind": "axioms"})
    report = run_task(parse_spec(text))
    assert report.exit_code == 0
    assert report.body["results"]["axioms"]["passed"]


def test_sweep_matches_golden_file():
    from pathlib import Path

    from prokit.cli import _load_task_text

    golden = Path(__file__).parent / "data" / "ex1_sweep_golden.json"
    report = run_task(parse_spec(_load_task_text("fixture:ex1_truncated")))
    assert report.body_bytes() == golden.read_bytes()
