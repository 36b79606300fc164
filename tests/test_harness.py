"""Task parsing, report structure, emission formats, CLI exit codes."""

import json

import pytest

from prokit.errors import BoundViolation, ParseError, UnknownReference
from prokit.cli import main
from prokit.tasks import ALL_CHECKS, emit_report, parse_spec, run_task


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


@pytest.mark.parametrize(
    "analysis",
    [{"kind": "profile", "profile": "weak"}, {"kind": "profile", "profiles": ["weak"]}],
)
def test_cli_weak_profile_i_max_above_the_sequence_length_is_a_usage_error(
    analysis, tmp_path, capsys
):
    # H_i of a k-element sequence is read for i <= k only: a bound i_max above
    # k is bad input (exit 64), not a failed check (exit 1)
    doc = {
        "schema": 1,
        "ring": {"kind": "zmod", "m": 8},
        "sequences": {"s": [2]},
        "analysis": analysis,
        "bounds": {"n_max": 2, "i_max": 3},
    }
    path = tmp_path / "task.json"
    path.write_text(json.dumps(doc))
    assert main(["profile", str(path)]) == 64
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("prokit:")]
    assert len(lines) == 1 and "i_max 3" in lines[0] and "length 1" in lines[0], lines
    assert captured.out == ""


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


def family_text(**family):
    return json.dumps({"schema": 1, "family": {"kind": "truncated_two_power", **family}})


def verify_text(**analysis):
    return task_text(analysis={"kind": "verify", "sequence": "xs", **analysis})


@pytest.mark.parametrize(
    "command, content",
    [
        ("check", b"\xff\xfe{"),
        ("check", b"[1, 2]"),
        ("check", verify_text(checks=["no_such_check"]).encode()),
        # a number, a list or an object is an unknown check name, not a
        # TypeError from a lookup in the check table
        ("check", verify_text(checks=[5]).encode()),
        ("check", verify_text(checks=[["x"]]).encode()),
        ("check", verify_text(checks=[{"a": 1}]).encode()),
        ("check", task_text(ring={"kind": "zmod"}).encode()),
        ("check", task_text(bounds={"n_max": "a"}).encode()),
        ("check", task_text(bounds={"n_max": 2, "resolution_length": 3}).encode()),
        ("check", task_text(bounds={"depth": 2}).encode()),
        ("check", family_text(range=[3]).encode()),
        # errors raised while the ring is built
        ("check", task_text(ring={"kind": "zmod", "m": 0}).encode()),
        ("check", task_text(ring={"kind": "truncated_two_power", "N": -1}).encode()),
        (
            "check",
            task_text(
                ring={"kind": "raw", "orders": [2], "products": [[[1]]], "unit": [1, 1]}
            ).encode(),
        ),
        (
            "check",
            task_text(
                ring={"kind": "raw", "orders": [2, 2], "products": [[[1, 0]]], "unit": [1, 0]}
            ).encode(),
        ),
        (
            "axioms",
            task_text(
                ring={"kind": "raw", "orders": [2, 2], "products": [[[1, 0]]], "unit": [1, 0]},
                analysis={"kind": "axioms"},
            ).encode(),
        ),
        # errors raised while the modules are built
        ("check", task_text(sequences={"xs": [[None]]}).encode()),
        ("check", task_text(modules={"M": {"kind": "free", "rank": -2}}).encode()),
        ("check", task_text(modules={"M": {"kind": "presentation", "generators": -1}}).encode()),
        (
            "check",
            task_text(
                modules={"M": {"kind": "presentation", "generators": 1, "relations": [2]}}
            ).encode(),
        ),
        # fields read only when the task runs
        ("sweep", family_text(range=[2, 3], sequences=5).encode()),
        ("sweep", family_text(range=[2, 3], sequences=[5]).encode()),
        ("sweep", family_text(range=[2, 3], sequences=[["x"], []]).encode()),
        ("profile", family_text(range=[2, 3], sequence=[]).encode()),
        ("check", verify_text(checks=5).encode()),
        ("check", verify_text(checks=[], cartier={"x": 2}).encode()),
        ("check", verify_text(checks=["torsion_routes"], module=["M"]).encode()),
        ("profile", task_text(analysis={"kind": "profile", "profiles": 5}).encode()),
    ],
    ids=[
        "not_utf8",
        "top_level_array",
        "unknown_check",
        "unknown_check_number",
        "unknown_check_list",
        "unknown_check_object",
        "missing_modulus",
        "non_integer_bound",
        "resolution_length_bound",
        "unknown_bound",
        "one_entry_range",
        "zero_modulus",
        "negative_two_power",
        "raw_unit_length",
        "raw_products_short",
        "raw_products_short_axioms",
        "coordinate_not_an_integer",
        "free_negative_rank",
        "presentation_negative_generators",
        "presentation_relation_not_a_list",
        "family_sequences_not_a_list",
        "family_sequences_entry_not_a_list",
        "family_sequences_entry_empty",
        "family_sequence_empty",
        "checks_not_a_list",
        "cartier_without_ideal",
        "module_name_not_a_string",
        "profiles_not_a_list",
    ],
)
def test_cli_bad_task_file_exits_64(command, content, tmp_path, capsys):
    path = tmp_path / "task.json"
    path.write_bytes(content)
    assert main([command, str(path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("prokit: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


RAW_Z2 = {"kind": "raw", "orders": [2], "products": [[[1]]], "unit": [1]}
Z8 = {"kind": "zmod", "m": 8}
CARTIER = {"kind": "verify", "sequence": "xs", "checks": []}


@pytest.mark.parametrize(
    "command, field, content",
    [
        ("sweep", "sequence", family_text(range=[2, 3], sequence="one")),
        ("sweep", "sequence", family_text(range=[2, 3], sequence="x")),
        ("check", "xs", task_text(elements={"p": 2}, sequences={"xs": "p"})),
        ("check", "factors", task_text(ring={"kind": "product", "factors": "ab"})),
        ("check", "ideal", task_text(ring={"kind": "quotient", "ring": Z8, "ideal": "4"})),
        ("check", "orders", task_text(ring={**RAW_Z2, "orders": "24"})),
        ("axioms", "orders", task_text(ring={**RAW_Z2, "orders": "24"}, analysis={"kind": "axioms"})),
        ("check", "unit", task_text(ring={**RAW_Z2, "unit": "10"})),
        ("check", "products", task_text(ring={**RAW_Z2, "products": "1"})),
        ("check", "checks", verify_text(checks="profiles")),
        ("profile", "profiles", task_text(analysis={"kind": "profile", "profiles": "gm"})),
        (
            "check",
            "ideal",
            task_text(elements={"p": 2}, analysis={**CARTIER, "cartier": {"ideal": "p", "x": 2}}),
        ),
        (
            "check",
            "covering",
            task_text(
                elements={"p": 2},
                analysis={**CARTIER, "cartier": {"ideal": [2], "x": 2, "covering": "p"}},
            ),
        ),
    ],
    ids=[
        "family_sequence_name",
        "family_sequence_one_letter",
        "sequence_value",
        "product_factors",
        "quotient_ideal",
        "raw_orders",
        "raw_orders_axioms",
        "raw_unit",
        "raw_products",
        "checks_one_name",
        "profiles_one_kind",
        "cartier_ideal",
        "cartier_covering",
    ],
)
def test_cli_list_field_given_a_string_exits_64(command, field, content, tmp_path, capsys):
    # a string is not split into one entry per character: every list field
    # takes only a JSON array ("checks": "all" is the one string form)
    path = tmp_path / "task.json"
    path.write_text(content)
    assert main([command, str(path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"prokit: bad value for field {field!r}: expected a JSON array, got ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("q", [0, 1, -2, 9, True])
def test_cli_family_modulus_that_is_not_prime_exits_64(q, tmp_path, capsys):
    # the family's modulus is checked while the document is parsed, as a
    # ring's is, so both are bad input with the same message
    family = {"kind": "truncated_polynomial", "q": q, "range": [2, 3]}
    ring = {"kind": "truncated_polynomial", "q": q, "n": 2}
    errors = []
    for command, doc in (
        ("sweep", {"schema": 1, "family": family}),
        ("check", json.loads(task_text(ring=ring))),
    ):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 64
        errors.append(capsys.readouterr().err)
    # a boolean is not a JSON integer, so it never reaches the prime test
    if isinstance(q, bool):
        expected = f"prokit: bad value for field 'q': expected an integer, got {q!r}\n"
    else:
        expected = f"prokit: modulus {q} is not prime\n"
    assert errors[0] == errors[1] == expected


BAD_FIELD = "bad value for field {!r}: expected an integer, got {!r}"
BAD_COORDS = "bad coordinate vector {!r}: expected an integer, got True"
INT_PRODUCT = {"kind": "product", "factors": [Z8, Z8]}


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("check", task_text(ring={"kind": "zmod", "m": "12"}), BAD_FIELD.format("m", "12")),
        ("check", task_text(ring={"kind": "zmod", "m": 12.9}), BAD_FIELD.format("m", 12.9)),
        ("check", task_text(ring={"kind": "zmod", "m": True}), BAD_FIELD.format("m", True)),
        ("check", task_text(bounds={"n_max": 2.0}), BAD_FIELD.format("n_max", 2.0)),
        ("sweep", family_text(range=["2", 4]), BAD_FIELD.format("range", "2")),
        (
            "check",
            task_text(ring=INT_PRODUCT, sequences={"xs": [[2, True]]}),
            BAD_COORDS.format([2, True]),
        ),
        ("sweep", family_text(range=[2, 2], sequence=[[1, True]]), BAD_COORDS.format([1, True])),
    ],
    ids=[
        "string", "float", "bool", "float_bound", "string_in_range", "coordinate", "sweep_coordinate"
    ],
)
def test_cli_integer_field_given_another_type_exits_64(command, content, message, tmp_path, capsys):
    # integer fields and coordinates take JSON integers only: int() would
    # read "12" and 12.9 as 12, and true as 1
    path = tmp_path / "task.json"
    path.write_text(content)
    assert main([command, str(path)]) == 64
    assert capsys.readouterr().err == f"prokit: {message}\n"


def test_cli_sweep_over_a_prime_family_modulus_runs(tmp_path, capsys):
    path = tmp_path / "task.json"
    doc = {"schema": 1, "family": {"kind": "truncated_polynomial", "q": 3, "range": [2, 3]}}
    path.write_text(json.dumps(doc))
    assert main(["sweep", str(path)]) == 0
    levels = json.loads(capsys.readouterr().out)["results"]["sequences"][0]["levels"]
    assert [lvl["ring_order"] for lvl in levels] == [3 * 9, 3 * 9 * 27]


def test_cli_corrupted_raw_ring_exits_64(tmp_path, capsys):
    # Z/4 with e1*e1 = 3*e1 while the unit claims e1
    path = tmp_path / "task.json"
    path.write_text(task_text(ring={"kind": "raw", "orders": [4], "products": [[[3]]], "unit": [1]}))
    assert main(["check", str(path)]) == 64
    assert capsys.readouterr().err == "prokit: unit law fails at basis element 0\n"


CORRUPT_RAW = {"kind": "raw", "orders": [4], "products": [[[3]]], "unit": [1]}


def write_doc(tmp_path, **doc):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"schema": 1, **doc}))
    return str(path)


@pytest.mark.unchecked_axioms
def test_cli_axioms_diagnoses_whatever_kind_the_document_declares(tmp_path, capsys):
    path = write_doc(tmp_path, ring=CORRUPT_RAW, analysis={"kind": "verify"})
    assert main(["axioms", path]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    axioms = json.loads(out.out)["results"]["axioms"]
    assert axioms["passed"] is False
    assert axioms["failures"][0] == "unit law fails at basis element 0"


@pytest.mark.parametrize("command", ["check", "profile"])
def test_cli_command_kind_overrides_declared_axioms(command, tmp_path, capsys):
    path = write_doc(
        tmp_path, ring={"kind": "zmod", "m": 6}, analysis={"kind": "axioms"}, sequences={"s": [2]}
    )
    assert main([command, path]) == 0
    assert capsys.readouterr().err == ""


def test_cli_check_rejects_corrupted_ring_declaring_axioms(tmp_path, capsys):
    path = write_doc(tmp_path, ring=CORRUPT_RAW, analysis={"kind": "axioms"})
    assert main(["check", path]) == 64
    assert capsys.readouterr().err == "prokit: unit law fails at basis element 0\n"


Z3_TIMES_Z2 = {
    "kind": "raw",
    "orders": [3, 2],
    "products": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    "unit": [1, 1],
}


def test_cli_axioms_transports_a_table_over_non_chain_orders(tmp_path, capsys):
    # the orders [3, 2] are no invariant-factor chain; `axioms` builds the
    # raw ring the way `check` does, transported to Z/6, and finds no
    # failure
    path = write_doc(tmp_path, ring=Z3_TIMES_Z2, analysis={"kind": "axioms"})
    assert main(["axioms", path]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    axioms = json.loads(out.out)["results"]["axioms"]
    assert axioms == {"failures": [], "invariant_factors": [6], "order": 6, "passed": True}
    path = write_doc(
        tmp_path,
        ring=Z3_TIMES_Z2,
        sequences={"s": [[1]]},
        analysis={"kind": "verify", "checks": ["profiles"]},
    )
    assert main(["check", path]) == 0
    assert capsys.readouterr().err == ""


def test_cli_sweep_with_an_undecided_entry_exits_2(tmp_path, capsys):
    # at m_max 3 entry (1, 2) of truncated_two_power(2) is undecided while
    # (1, 1) is found; the sweep is inconclusive, as the profile of the
    # same ring and element is
    bounds = {"n_max": 2, "m_max": 3}
    family = {"kind": "truncated_two_power", "range": [2, 2], "sequences": [["x"]]}
    assert main(["sweep", write_doc(tmp_path, family=family, bounds=bounds)]) == 2
    results = json.loads(capsys.readouterr().out)["results"]
    profile = results["sequences"][0]["levels"][0]["profile"]
    assert profile["rows"] == [[1, 1, 3, True], [1, 2, 3, False]]
    assert profile["conclusive"] is False
    ring = {"kind": "truncated_two_power", "N": 2}
    path = write_doc(tmp_path, ring=ring, sequences={"s": ["x"]}, bounds=bounds)
    assert main(["profile", path]) == 2
    assert json.loads(capsys.readouterr().out)["results"]["lipman"] == profile


ZERO_RING = {"kind": "product", "factors": []}
Z6 = {"kind": "zmod", "m": 6}
Z12 = {"kind": "zmod", "m": 12}
DEGENERATE_DOCS = {
    "zero_ring": {"ring": ZERO_RING, "sequences": {"s": [1]}},
    "zero_ring_free_rank_2": {
        "ring": ZERO_RING,
        "modules": {"M": {"kind": "free", "rank": 2}},
        "sequences": {"s": [1, 0]},
    },
    "free_rank_0": {
        "ring": Z6,
        "modules": {"M": {"kind": "free", "rank": 0}},
        "sequences": {"s": [2]},
    },
    "unit_relation": {
        "ring": Z6,
        "modules": {"M": {"kind": "presentation", "generators": 1, "relations": [[1]]}},
        "sequences": {"s": [2, 3]},
    },
    "empty_sequence": {"ring": Z6, "sequences": {"s": []}},
    "unit_entry": {"ring": Z12, "sequences": {"s": [1]}},
    "zero_entry": {"ring": Z12, "sequences": {"s": [0]}},
    "unit_zero_x": {
        "ring": {"kind": "truncated_two_power", "N": 2},
        "sequences": {"s": ["one", "zero", "x"]},
    },
}


@pytest.mark.parametrize("check", ALL_CHECKS)
@pytest.mark.parametrize("doc", DEGENERATE_DOCS)
def test_degenerate_inputs_pass_every_check(doc, check, tmp_path, capsys):
    # the zero ring, zero modules, an empty sequence, unit and zero entries
    path = write_doc(
        tmp_path, **DEGENERATE_DOCS[doc], analysis={"kind": "verify", "checks": [check]}
    )
    assert main(["check", path]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["results"][check]["passed"] is True


def test_bound_transfer_after_thm2_builds_its_own_gm_profile(tmp_path, capsys):
    path = write_doc(
        tmp_path, ring=Z12, sequences={"s": [2]}, analysis={"checks": ["thm2", "bound_transfer"]}
    )
    assert main(["check", path]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["results"]["bound_transfer"]["passed"] is True


def test_cli_undecided_profiles_check_exits_2(tmp_path, capsys):
    # with m_max = 1 no entry of Z/12, x = 2 is decided: that is exit 2, as
    # under `prokit profile` and the other checks that read these profiles,
    # and not the exit 1 of a counterexample
    doc = {"ring": Z12, "sequences": {"s": [2]}, "bounds": {"n_max": 2, "m_max": 1}}
    path = write_doc(tmp_path, **doc, analysis={"checks": ["profiles"]})
    assert main(["check", path]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["results"]["profiles"]["passed"] is False
    assert main(["profile", path]) == 2
    path = write_doc(tmp_path, **doc, analysis={"checks": ["thm2", "bound_transfer"]})
    assert main(["check", path]) == 2


def test_readme_lists_the_check_table():
    from pathlib import Path
    import re

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"- `verify`: `checks` is `\"all\"` or a list drawn from (.*?)\.\n", readme, re.S)
    assert tuple(re.findall(r"`(\w+)`", listed.group(1))) == ALL_CHECKS


def test_checks_read_the_bounds_the_readme_says():
    # the README's `verify` section: three checks read n_max and m_max, the
    # others report the same payload under any bounds
    reading = ["profiles", "bound_transfer", "thm2"]

    def results(bounds):
        analysis = {"kind": "verify", "sequence": "xs", "checks": list(ALL_CHECKS)}
        text = task_text(ring=Z12, sequences={"xs": [2]}, analysis=analysis, bounds=bounds)
        return run_task(parse_spec(text)).body["results"]

    tight, loose = results({"n_max": 1, "m_max": 1}), results({"n_max": 3, "m_max": 12})
    assert [name for name in ALL_CHECKS if tight[name] != loose[name]] == reading


@pytest.mark.parametrize("check", ["vanishing", "injective_weak"])
def test_one_cech_complex_per_check(monkeypatch, check):
    # degrees 0..k are read off one complex, not built once per degree
    import prokit.complexes

    real = prokit.complexes.CechData.__init__
    calls = []

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(prokit.complexes.CechData, "__init__", counted)
    text = task_text(sequences={"xs": [2, 4]}, analysis={"kind": "verify", "sequence": "xs", "checks": [check]})
    assert run_task(parse_spec(text)).body["results"][check]["passed"] is True
    assert len(calls) == 1


def _z12_battery():
    from prokit.modules import ring_as_module
    from prokit.rings import zmod
    from prokit.tasks import _vanishing_battery

    R = zmod(12)
    payload, ok, inconclusive = _vanishing_battery(
        ring_as_module(R), [R.from_int(2), R.from_int(3)]
    )
    assert ok and not inconclusive and payload["passed"]


def test_vanishing_battery_reads_every_cech_homology_degree_off_one_tower(monkeypatch):
    # Z/12 has stable level n = 4: one tower, and d_1, d_2 of its levels 4
    # and 8, each assembled once
    from test_complexes import _count_koszul_differentials

    built, towers, _ = _count_koszul_differentials(monkeypatch)
    _z12_battery()
    assert len(towers) == 1
    assert sorted(built) == [(2, 4, 1), (2, 4, 2), (2, 8, 1), (2, 8, 2)]


def test_three_element_battery_builds_each_differential_once(monkeypatch):
    # Z/2 x Z/4 x Z/8 has stable level n = 7; H_0 .. H_3 read d_1 .. d_3 of
    # levels 7 and 14, six differentials in all, on one layout
    from prokit.modules import ring_as_module
    from prokit.rings import product_ring, zmod
    from prokit.tasks import _vanishing_battery
    from test_complexes import _count_koszul_differentials

    built, towers, layouts = _count_koszul_differentials(monkeypatch)
    factors = [zmod(2), zmod(4), zmod(8)]
    R, embed = product_ring(factors)
    seq = [
        embed([F.from_int(c) for F, c in zip(factors, coords)])
        for coords in ((0, 2, 2), (1, 0, 2), (0, 1, 4))
    ]
    payload, ok, inconclusive = _vanishing_battery(ring_as_module(R), seq)
    assert not inconclusive and "cech_homology_3_zero" in payload
    assert sorted(built) == [(3, n, d) for n in (7, 14) for d in (1, 2, 3)]
    assert len(towers) == 1 and len(layouts) == 1


def test_vanishing_battery_splits_each_element_once_per_use(monkeypatch):
    # one split per element, kept on the ring by the Cech complex's first
    # call; the stable idempotent of I, which torsion_submodule,
    # local_cohomology and adic_completion share through the Ideal, reads
    # the kept splits
    import prokit.rings

    calls = []
    real = prokit.rings._factor_fitting_idempotent
    monkeypatch.setattr(
        prokit.rings, "_factor_fitting_idempotent", lambda *a: calls.append(a) or real(*a)
    )
    _z12_battery()
    assert len(calls) == 2


def test_vanishing_battery_builds_one_koszul_layout(monkeypatch):
    # the Cech complex and the tower of the Cech homology share one layout
    from test_complexes import _count_koszul_differentials

    _, _, layouts = _count_koszul_differentials(monkeypatch)
    _z12_battery()
    assert len(layouts) == 1


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


@pytest.mark.parametrize(
    "ring, element, check, bounds, error",
    [
        # bound transfer needs an entry beyond the document's own m_max
        ({"kind": "zmod", "m": 8}, 2, "bound_transfer", {"n_max": 2, "m_max": 2},
         "InsufficientBound: inconclusive entry at (1, 1)"),
        # primitive idempotents enumerate factors of order at most 4096
        ({"kind": "truncated_two_power", "N": 5}, "x", "local_global", {},
         "InsufficientBound: factor of order 32768 too large to enumerate"),
    ],
    ids=["bound_transfer", "local_global"],
)
def test_cli_check_that_runs_out_of_budget_exits_2(
    ring, element, check, bounds, error, tmp_path, capsys
):
    path = write_doc(
        tmp_path,
        ring=ring,
        sequences={"s": [element]},
        analysis={"kind": "verify", "checks": [check]},
        bounds=bounds,
    )
    assert main(["check", path]) == 2
    body = json.loads(capsys.readouterr().out)
    assert body["exit_code"] == 2
    assert body["results"][check] == {"error": error, "passed": False}


def test_cli_local_global_splits_a_ring_too_large_to_enumerate(tmp_path, capsys):
    # Z/2764800 = Z/4096 x Z/27 x Z/25 has more than 65,536 elements, but
    # each local factor is enumerable, so the check decides and passes
    path = write_doc(
        tmp_path,
        ring={"kind": "zmod", "m": 2764800},
        sequences={"s": [2]},
        analysis={"kind": "verify", "checks": ["local_global"]},
    )
    assert main(["check", path]) == 0
    result = json.loads(capsys.readouterr().out)["results"]["local_global"]
    assert result["passed"] is True
    assert result["details"]["covering_size"] == 3


def test_zero_ring_passes_local_global(tmp_path, capsys):
    # in the zero ring 1 = 0, so the empty family of primitive idempotents covers
    path = tmp_path / "task.json"
    path.write_text(
        task_text(
            ring={"kind": "product", "factors": []},
            sequences={"xs": [1]},
            analysis={"kind": "verify", "sequence": "xs"},
        )
    )
    assert main(["check", str(path)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["results"]["local_global"]["passed"] is True
    assert body["results"]["local_global"]["details"]["covering_size"] == 0


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


def test_sweep_builds_no_product_ring_and_scans_each_factor_once(monkeypatch):
    # two sequences over levels 2..4: each of the factors Z/2..Z/16 is
    # scanned once per sequence, and no level's product ring is built
    import prokit.rings as rings
    import prokit.tasks as tasks

    products, scans = [], []
    real_product, real_scan = rings.product_ring, tasks.lipman_profile

    def product_ring(factors):
        products.append(len(factors))
        return real_product(factors)

    def lipman_profile(M, seq, *bounds):
        scans.append((M.order(), len(seq)))
        return real_scan(M, seq, *bounds)

    monkeypatch.setattr(rings, "product_ring", product_ring)
    monkeypatch.setattr(tasks, "product_ring", product_ring)
    monkeypatch.setattr(tasks, "lipman_profile", lipman_profile)
    doc = {
        "schema": 1,
        "family": {
            "kind": "truncated_two_power",
            "range": [2, 4],
            "sequences": [["x"], ["one", "x"]],
        },
        "analysis": {"kind": "sweep"},
        "bounds": {"n_max": 2},
    }
    report = run_task(parse_spec(json.dumps(doc)))
    assert products == []
    assert sorted(scans) == sorted((2 ** j, k) for j in range(1, 5) for k in (1, 2))
    assert [s["sequence"] for s in report.body["results"]["sequences"]] == [["x"], ["one", "x"]]
    assert [lvl["N"] for lvl in report.body["results"]["sequences"][1]["levels"]] == [2, 3, 4]


def test_sweep_computes_each_torsion_index_once_per_factor(monkeypatch):
    # ex1_truncated sweeps ["x"] and ["one", "x"] over levels 2..6: two
    # elements on each factor Z/2^j, j = 1..6, so twelve Fitting splits,
    # not one per (level, element).  Each split is kept on its factor,
    # where the factor's scans read it as their stop bound and the level
    # reads it as that factor's torsion index: j for x, 0 for one.
    import prokit.rings as rings
    from prokit.cli import _load_task_text

    calls = []
    real = rings._factor_fitting_idempotent

    def split(R, e, y):
        calls.append((R.order(), y.coords))
        return real(R, e, y)

    monkeypatch.setattr(rings, "_factor_fitting_idempotent", split)
    report = run_task(parse_spec(_load_task_text("fixture:ex1_truncated")))
    assert report.exit_code == 0
    x_calls = [(2 ** j, (2 % 2 ** j,)) for j in range(1, 7)]
    one_calls = [(2 ** j, (1,)) for j in range(1, 7)]
    assert sorted(calls) == sorted(x_calls + one_calls)
    levels = report.body["results"]["sequences"][1]["levels"]
    assert [lvl["torsion_indices"] for lvl in levels] == [[0, N] for N in range(2, 7)]


def test_sweep_preimage_count_on_ex1(monkeypatch):
    # Scanning each factor from m = n, with its torsion chain built apart
    # from its scans, took 71 preimages on ex1_truncated.  Started at the
    # running maximum, with scan data kept on each factor, the sweep took
    # 28: each colon of the torsion chains is one the scans need.  The
    # colon of a level equal to M is M with no preimage (the unit prefix),
    # so it took 17.  The scans stop at the Fitting index their factor
    # keeps, and no torsion chain builds annihilators, so it takes 11.
    import prokit.analysis as analysis
    from prokit.cli import _load_task_text

    calls = []
    real = analysis.preimage_span
    monkeypatch.setattr(analysis, "preimage_span", lambda f, s: calls.append(1) or real(f, s))
    report = run_task(parse_spec(_load_task_text("fixture:ex1_truncated")))
    assert report.exit_code == 0
    assert len(calls) == 11


@pytest.mark.parametrize("fixture, preimages", [("z12_battery", 5), ("prism_style", 3)])
def test_profile_task_shares_one_scan_context(monkeypatch, fixture, preimages):
    # the Lipman and GM profiles of one profile document scan one module,
    # which keeps its scan data; with fresh scan data for each profile
    # they took 14 and 6 preimages.  Before the scans stopped at the
    # Fitting index the ring keeps, z12_battery took 7, two of them for
    # its torsion chains.  Each payload equals that of a document asking
    # for its profile alone.
    import prokit.analysis as analysis
    from prokit.cli import _load_task_text

    doc = json.loads(_load_task_text(f"fixture:{fixture}"))
    doc["analysis"] = {"kind": "profile", "profiles": ["lipman", "gm"], "sequence": "xs"}
    alone = {}
    for kind in ("lipman", "gm"):
        single = dict(doc, analysis={"kind": "profile", "profile": kind, "sequence": "xs"})
        alone[kind] = run_task(parse_spec(json.dumps(single))).body["results"][kind]
    calls = []
    real = analysis.preimage_span
    monkeypatch.setattr(analysis, "preimage_span", lambda f, s: calls.append(1) or real(f, s))
    report = run_task(parse_spec(json.dumps(doc)))
    assert report.exit_code == 0
    assert len(calls) == preimages
    for kind in ("lipman", "gm"):
        body = report.body["results"][kind]
        assert json.dumps(body, sort_keys=True) == json.dumps(alone[kind], sort_keys=True)


# Counts of one document's scans: inclusions tested (one `span_leq`
# cross-check each), preimages (`preimage_span`), levels
# (`image_submodule`) and actions (`FgModule.action_hom`, every caller).
# With one colon dict per scan and no witness bound they were, in that
# order, 101/60/75/216 on z12_battery, 49/29/33/79 on prism_style and
# 48/28/57/110 on ex1_truncated.  Before `injective_proregular` and
# `power_stability` scanned in the document's context, z12_battery took
# 57/41/17/142.  Before a level N_1 = M stood for every later level and
# colon, and the weak profile was kept in the context, they were
# 51/24/10/122 on z12_battery and 24/28/18/57 on ex1_truncated.  Before
# the Tor comparison read degrees 0 and 1 off one resolution and one
# completion, z12_battery took 113 actions.  Before the scans stopped at
# the Fitting index their ring keeps, the torsion searches' annihilator
# chains added preimages and actions: 51/23/9/110 on z12_battery,
# 29/18/4/39 on prism_style and 24/17/12/51 on ex1_truncated.
@pytest.mark.parametrize(
    "fixture, counts",
    [
        ("z12_battery", (51, 20, 9, 104)),
        ("prism_style", (29, 15, 4, 39)),
        ("ex1_truncated", (24, 11, 12, 39)),
    ],
)
def test_scan_context_counts_on_fixture(monkeypatch, fixture, counts):
    # the scan data each module keeps builds each level, action, colon and
    # scan once, and the scans test no m at or above n + c_R(y)
    import prokit.analysis as analysis
    from prokit.cli import _load_task_text
    from prokit.modules import FgModule

    seen = {"inclusion": 0, "preimage": 0, "level": 0, "action": 0}

    def counted(name, real):
        def call(*args):
            seen[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(analysis, "span_leq", counted("inclusion", analysis.span_leq))
    monkeypatch.setattr(analysis, "preimage_span", counted("preimage", analysis.preimage_span))
    monkeypatch.setattr(analysis, "image_submodule", counted("level", analysis.image_submodule))
    monkeypatch.setattr(FgModule, "action_hom", counted("action", FgModule.action_hom))
    report = run_task(parse_spec(_load_task_text(f"fixture:{fixture}")))
    assert report.exit_code == 0
    assert tuple(seen.values()) == counts


def test_verify_document_builds_its_weak_profile_once(monkeypatch):
    # `profiles`/`thm2`, `injective_weak` and `local_global` ask for the
    # same global weak profile of z12_battery.  Kept on the analysis
    # module, it is built on one Koszul tower; with none kept, each
    # built its own (three global towers besides the two local ones).
    import prokit.analysis as analysis
    from prokit.cli import _load_task_text

    towers = []
    real = analysis.KoszulTower
    monkeypatch.setattr(
        analysis, "KoszulTower", lambda xs, M: towers.append(M.order()) or real(xs, M)
    )
    report = run_task(parse_spec(_load_task_text("fixture:z12_battery")))
    assert report.exit_code == 0
    # the global tower on Z/12, then one per local factor, Z/4 and Z/3
    assert sorted(towers) == [3, 4, 12]
    results = report.body["results"]
    assert results["profiles"]["weak"]["rows"] == results["local_global"]["details"]["global_weak"]


def test_local_global_splits_each_factor_element_once(monkeypatch):
    # many y give one e*y on a factor e; an e*y that was tried did not
    # split e, so `primitive_idempotents` does not split it again
    import prokit.rings
    from prokit.cli import _load_task_text

    calls = []
    real = prokit.rings._factor_fitting_idempotent

    def split(R, e, y):
        calls.append((R, e.coords, y.coords))
        return real(R, e, y)

    monkeypatch.setattr(prokit.rings, "_factor_fitting_idempotent", split)
    doc = json.loads(_load_task_text("fixture:z12_battery"))
    doc["analysis"]["checks"] = ["local_global"]
    report = run_task(parse_spec(json.dumps(doc)))
    assert report.body["results"]["local_global"]["passed"]
    # the calls keep their rings alive, so no two share an id
    keys = [(id(R), e, y) for R, e, y in calls]
    assert calls and len(set(keys)) == len(keys)


def _reference_family_sweep(task):
    """The levels of each sequence of a sweep, with each level's ring built
    by `product_ring` and scanned at full rank: the route that reading
    levels off factors replaced, kept as the reference."""
    from prokit.analysis import bounded_torsion_index, lipman_profile
    from prokit.modules import ring_as_module
    from prokit.rings import truncated_polynomial_family, truncated_two_power
    from prokit.tasks import _profile_payload, _resolve_element

    family = task.family
    lo, hi = family["range"]
    n_max = task.bounds.get("n_max", 2)
    m_max = task.bounds.get("m_max")
    seqs = task.sequences["_family"]
    out = [[] for _ in seqs]
    for N in range(lo, hi + 1):
        if family["kind"] == "truncated_two_power":
            R, x, one = truncated_two_power(N)
        else:
            R, x, one = truncated_polynomial_family(family.get("q", 2), N)
        named = {"x": x, "one": one, "zero": R.zero()}
        M = ring_as_module(R)
        for levels, refs in zip(out, seqs):
            seq = [_resolve_element(R, named, ref) for ref in refs]
            prof = lipman_profile(M, seq, n_max, m_max)
            levels.append(
                {
                    "N": N,
                    "ring_order": R.order(),
                    "profile": _profile_payload(prof),
                    "entry_1_1": prof.entry(1, 1) if prof.conclusive(1, 1) else None,
                    "torsion_indices": [bounded_torsion_index(M, y)[0] for y in seq],
                }
            )
    return out


def _sweep_task(family, sequences, bounds):
    doc = {
        "schema": 1,
        "family": {**family, "sequences": sequences},
        "analysis": {"kind": "sweep"},
        "bounds": bounds,
    }
    return parse_spec(json.dumps(doc))


def _sweep_corpus():
    """Sweep tasks of the factor-route comparison, drawn from one seed."""
    import random

    from prokit.rings import truncated_polynomial_factors, truncated_two_power_factors

    rng = random.Random(0xA022)
    named = [["x"], ["one", "x"], ["zero"]]
    families = (
        ({"kind": "truncated_two_power"}, 12, truncated_two_power_factors),
        ({"kind": "truncated_polynomial", "q": 2}, 8, lambda N: truncated_polynomial_factors(2, N)),
        ({"kind": "truncated_polynomial", "q": 3}, 4, lambda N: truncated_polynomial_factors(3, N)),
    )
    for family, top, level_factors in families:
        ints = [[rng.randrange(-9, 17) for _ in range(rng.randint(1, 2))] for _ in range(2)]
        yield _sweep_task({**family, "range": [1, top]}, named + ints, {"n_max": 2})
        # budgets tight enough to leave entries inconclusive
        for m_max in (1, 2, 3, 5):
            yield _sweep_task({**family, "range": [2, 5]}, named, {"n_max": 3, "m_max": m_max})
        # coordinate lists name elements of one level's additive group
        for N in range(1, min(top, 5) + 1):
            rank = sum(R.rank for R, _ in level_factors(N))

            def coords():
                return [rng.randrange(-3, 9) for _ in range(rank)]

            seqs = [[coords()], [coords(), "x"], ["one", coords()]]
            yield _sweep_task({**family, "range": [N, N]}, seqs, {"n_max": 2})
        # x on factors 1..cut and 1 on the rest: the witnesses of the later
        # factors lie below the running maximum of the earlier ones
        N = min(top, 4)
        for cut in (1, 2, 3):
            parts = [x if j < cut else R.one() for j, (R, x) in enumerate(level_factors(N))]
            y = [c for part in parts for c in part.coords]
            seqs = [[y], [y, "x"], ["x", y]]
            yield _sweep_task({**family, "range": [N, N]}, seqs, {"n_max": 2})


def test_sweep_levels_read_off_factors_match_the_product_route(monkeypatch):
    # Every factor after the first is scanned from the running maximum; a
    # hook on those scans records the entries where the first test, at the
    # running maximum, held though the factor's own least witness is
    # smaller.  The families' x never gives one, since its witnesses rise
    # with the factor; coordinate lists do, those that are units on the
    # later factors above all.
    import prokit.tasks as tasks_module
    from prokit.modules import FgModule

    real = tasks_module.lipman_profile
    held = []

    def scan(M, seq, n_max, m_max, start=None):
        prof = real(M, seq, n_max, m_max, start)
        # entries (i, n) that held at a running maximum above n
        at_start = [key for key, m in (start or {}).items() if key[1] < m == prof.entries[key]]
        if at_start:
            # the factor's own witnesses, on an equal module that shares no
            # scan data with M
            own = real(FgModule(M.ring, M.group, M.actions), seq, n_max, m_max).entries
            held.extend(key for key in at_start if own[key] < start[key])
        return prof

    monkeypatch.setattr(tasks_module, "lipman_profile", scan)
    tasks = list(_sweep_corpus())
    inconclusive = 0
    for task in tasks:
        report = run_task(task)
        levels = [s["levels"] for s in report.body["results"]["sequences"]]
        assert levels == _reference_family_sweep(task), task.echo
        inconclusive += report.exit_code == 2
    assert 0 < inconclusive < len(tasks)
    assert held


def test_sweep_level_reads_none_where_a_factor_witness_exceeds_its_budget(monkeypatch):
    # Under a budget that grows more slowly than the witnesses, factor Z/8
    # has witness 4 for entry (1, 1), above the budgets 3 of levels 3 and 4.
    # The top level's budget finds it, and levels 3 and 4 read None, as the
    # product route's scans of those levels do.
    import prokit.analysis as analysis
    import prokit.tasks as tasks

    def slow_budget(order, k, n_max):
        return n_max + order.bit_length() // 4

    monkeypatch.setattr(analysis, "default_budget", slow_budget)
    monkeypatch.setattr(tasks, "default_budget", slow_budget)
    task = _sweep_task(
        {"kind": "truncated_two_power", "range": [2, 8]}, [["x"], ["one", "x"]], {"n_max": 2}
    )
    report = run_task(task)
    sequences = report.body["results"]["sequences"]
    assert [s["levels"] for s in sequences] == _reference_family_sweep(task)
    assert sequences[0]["tracked"]["entry_1_1"] == [3, None, None, 6, 7, 8, 9]
    assert report.exit_code == 2


def test_sweep_coordinate_reference_of_another_level_is_a_parse_error():
    # a coordinate list of level 2's rank names no element of level 3
    task = _sweep_task(
        {"kind": "truncated_two_power", "range": [2, 3]}, [[[1, 1]]], {"n_max": 2}
    )
    with pytest.raises(ParseError, match="coordinate vector of length 2 for rank 3"):
        run_task(task)
    task = _sweep_task({"kind": "truncated_two_power", "range": [2, 2]}, [[[1, None]]], {})
    with pytest.raises(ParseError, match="bad coordinate vector"):
        run_task(task)


def test_weak_profile_records_no_witness_above_m_max():
    # Z/8, x = 3, n_max 3, m_max 1: the entries n = 2, 3 lie above the
    # budget, so every profile records them inconclusive at m_max
    text = task_text(
        sequences={"xs": [3]},
        analysis={"kind": "profile", "profiles": ["lipman", "gm", "weak"], "sequence": "xs"},
        bounds={"n_max": 3, "m_max": 1},
    )
    report = run_task(parse_spec(text))
    rows = [[1, 1, 1, True], [1, 2, 1, False], [1, 3, 1, False]]
    for kind in ("lipman", "gm", "weak"):
        assert report.body["results"][kind]["rows"] == rows
    assert report.exit_code == 2


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


@pytest.mark.parametrize(
    "name, family",
    [
        ("poly_sweep", {"kind": "truncated_polynomial", "q": 2, "range": [2, 8]}),
        ("two_power_sweep", {"kind": "truncated_two_power", "range": [2, 12]}),
    ],
)
def test_multi_level_sweep_matches_golden_file(name, family):
    from pathlib import Path

    doc = {
        "schema": 1,
        "family": {**family, "sequences": [["x"], ["one", "x"]]},
        "analysis": {"kind": "sweep"},
        "bounds": {"n_max": 2},
        "seed": 7,
    }
    golden = Path(__file__).parent / "data" / f"{name}_golden.json"
    report = run_task(parse_spec(json.dumps(doc)))
    assert report.body_bytes() == golden.read_bytes()


@pytest.mark.parametrize("name", ["z12_battery", "prism_style", "ex2_truncated"])
def test_fixture_body_matches_golden_file(name):
    from pathlib import Path

    from prokit.cli import _load_task_text

    golden = Path(__file__).parent / "data" / f"{name}_golden.json"
    report = run_task(parse_spec(_load_task_text(f"fixture:{name}")))
    assert report.body_bytes() == golden.read_bytes()


def test_runs_keep_no_process_wide_memo():
    # Derived data lives on the ring, group, ideal or module it derives
    # from, so running the four fixtures changes no module-level global of
    # prokit but the one kept Čech complex.  Callables, modules and
    # `__future__` features are not data; constants are compared by
    # identity and repr, which shows a container filled in place.
    import __future__
    import importlib
    import pkgutil
    from types import ModuleType

    import prokit
    from prokit.cli import _load_task_text

    def module_globals():
        found = {}
        for info in pkgutil.iter_modules(prokit.__path__):
            module = importlib.import_module(f"prokit.{info.name}")
            for name, value in vars(module).items():
                if name.startswith("__") or callable(value):
                    continue
                if isinstance(value, (ModuleType, __future__._Feature)):
                    continue
                found[f"{info.name}.{name}"] = (value, repr(value))
        return found

    before = module_globals()
    for name in ("ex1_truncated", "ex2_truncated", "prism_style", "z12_battery"):
        run_task(parse_spec(_load_task_text(f"fixture:{name}")))
    after = module_globals()
    assert after.keys() == before.keys()
    changed = {
        key for key, (value, text) in before.items()
        if after[key][0] is not value or after[key][1] != text
    }
    assert changed == {"complexes._kept"}
    assert {key for key, (value, _) in before.items() if not isinstance(value, int)} == {
        "cli.COMMAND_KINDS",
        "complexes._kept",
        "tasks._REQUIRED",
        "tasks.ALL_CHECKS",
        "tasks._CHECKS",
    }
