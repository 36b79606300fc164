"""Error-contract fuzzer: mutated task documents through `cli.main`.

A seeded, stdlib-only mutator takes the four fixtures and a set of
generated documents, shrinks their bounds, and drops, retypes and negates
fields at random.  Every mutant runs through `cli.main` in-process under a
random subcommand.  The documented contract must hold for each: the exit
code is 0, 1, 2 or 64, no exception escapes, and exit 64 prints exactly one
`prokit:` line on stderr.
"""

import copy
import json
import random
from importlib import resources

import pytest

from prokit.cli import main
from prokit.tasks import ALL_CHECKS

FIXTURES = ("ex1_truncated", "ex2_truncated", "prism_style", "z12_battery")
COMMANDS = ("check", "profile", "sweep", "axioms")
# values of other types that a retyped field takes
RETYPES = ("a", 3, -1, 1.5, True, None, [], [2], {}, {"kind": "zmod"})
MUTANTS_PER_BASE = 8


def _fixture(name):
    return json.loads(resources.files("prokit.fixtures").joinpath(f"{name}.json").read_text())


def _generated(rng):
    """A small valid document: a ring, modules, sequences and an analysis."""
    ring = rng.choice(
        [
            {"kind": "zmod", "m": rng.randint(2, 12)},
            {"kind": "truncated_two_power", "N": rng.randint(1, 3)},
            {"kind": "truncated_polynomial", "q": 2, "n": rng.randint(2, 3)},
            {"kind": "product", "factors": [{"kind": "zmod", "m": 2}, {"kind": "zmod", "m": 4}]},
            {"kind": "quotient", "ring": {"kind": "zmod", "m": 12}, "ideal": [4]},
            {"kind": "raw", "orders": [4], "products": [[[1]]], "unit": [1]},
        ]
    )
    modules = rng.choice(
        [
            {"M": {"kind": "ring"}},
            {"M": {"kind": "free", "rank": rng.randint(0, 2)}},
            {"M": {"kind": "presentation", "generators": 1, "relations": [[2]]}},
        ]
    )
    analysis = rng.choice(
        [
            {"kind": "verify", "sequence": "s", "checks": rng.sample(ALL_CHECKS, 2)},
            {"kind": "profile", "sequence": "s", "profile": rng.choice(["lipman", "gm", "weak"])},
            {"kind": "axioms"},
        ]
    )
    return {
        "schema": 1,
        "ring": ring,
        "modules": modules,
        "elements": {"p": rng.choice([0, 1, 2, "one"])},
        "sequences": {"s": rng.sample([0, 1, 2, 3, "p", "one"], rng.randint(0, 2))},
        "analysis": analysis,
        "bounds": {"n_max": 1, "m_max": 2},
        "seed": rng.randint(0, 99),
    }


def _family(rng, kind=None):
    kind = kind or rng.choice(["truncated_two_power", "truncated_polynomial"])
    family = {"kind": kind, "range": [2, 3], "sequences": [["x"], ["one", "x"]]}
    if kind == "truncated_polynomial":
        family["q"] = 2
    return {"schema": 1, "family": family, "analysis": {"kind": "sweep"}, "bounds": {"n_max": 1}}


def _tiny(doc):
    """Shrink the bounds and family range so that a mutant runs quickly."""
    doc["bounds"] = {"n_max": 1, "m_max": 2}
    if isinstance(doc.get("family"), dict):
        doc["family"]["range"] = [2, 3]
    return doc


def _slots(value):
    """Every (container, key) slot below the document root."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield value, key
        yield from _slots(child)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _mutate(rng, doc, slot=None):
    """Drop, retype or negate the field at `slot`, or at a random slot."""
    container, key = slot or rng.choice(list(_slots(doc)))
    action = rng.choice(["drop", "retype", "negate"])
    old = container[key]
    if action == "drop":
        del container[key]
    elif action == "negate" and _is_int(old):
        container[key] = -old
    elif action == "negate" and isinstance(old, list) and old and all(map(_is_int, old)):
        container[key] = [-v for v in old]
    else:
        # a copy, so that a later mutation inside it leaves RETYPES alone
        new = rng.choice([v for v in RETYPES if type(v) is not type(old)])
        container[key] = copy.deepcopy(new)
    return f"{action} {key!r}"


def _mutants():
    rng = random.Random(0xE6C4)
    bases = [(name, _tiny(_fixture(name))) for name in FIXTURES]
    bases += [(f"generated{i}", _generated(rng)) for i in range(16)]
    bases += [(f"family{i}", _family(rng)) for i in range(4)]
    # the first mutation of this base always hits the family's modulus q
    bases.append(("family_q", _family(rng, "truncated_polynomial")))
    for name, base in bases:
        for k in range(MUTANTS_PER_BASE):
            doc = copy.deepcopy(base)
            if name == "family_q":
                steps = [_mutate(rng, doc, (doc["family"], "q"))]
                steps += [_mutate(rng, doc) for _ in range(rng.randint(0, 1))]
            else:
                steps = [_mutate(rng, doc) for _ in range(rng.randint(1, 2))]
            yield f"{name}-{k}", rng.choice(COMMANDS), doc, steps


MUTANTS = list(_mutants())


def test_mutants_cover_every_base_and_command():
    assert len(MUTANTS) == 25 * MUTANTS_PER_BASE
    assert {command for _, command, _, _ in MUTANTS} == set(COMMANDS)
    assert any(step.endswith("'q'") for _, _, _, steps in MUTANTS for step in steps)


# a mutated raw table may break the ring axioms: the contract is checked
# against the program's own input checks, without the suite's wrapper
@pytest.mark.unchecked_axioms
@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutated_documents_keep_the_exit_contract(mutant, tmp_path, capsys):
    name, command, doc, steps = mutant
    path = tmp_path / "task.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path)])
    err = capsys.readouterr().err
    context = f"{command} after {steps}: {json.dumps(doc)}"
    assert code in (0, 1, 2, 64), context
    assert "Traceback" not in err, context
    if code == 64:
        assert err.startswith("prokit: ") and err.count("\n") == 1, context
