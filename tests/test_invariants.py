"""Cross-cutting invariants that tie several layers together."""

import json

import pytest

from prokit.analysis import lipman_profile, violating_certificate
from prokit.complexes import cech_homology
from prokit.errors import AxiomViolation, DimensionMismatch
from prokit.intlinalg import FinAbGroup, GroupHom, IntMatrix
from prokit.modules import (
    FgModule,
    free_module,
    generated_submodule,
    local_cohomology,
    localize_module,
    matlis_dual,
    module_power,
    quotient_module,
    ring_as_module,
    submodule_module,
    zero_module,
)
from prokit.randgen import rng_from_seed
from prokit.rings import (
    FiniteRing,
    check_ring_axioms,
    ideal,
    localize,
    product_ring,
    quotient_ring,
    truncated_polynomial_family,
    truncated_two_power,
    zero_ring,
    zmod,
)
from prokit.tasks import Report, emit_report, parse_spec, run_task
from complex_reference import cyclic_quotient_module, hom_module
from test_modules import tensor_module
from random_instances import random_instance, random_ring


def test_conclusive_entries_reverify():
    # every recorded witness satisfies its defining inclusion when re-checked
    rng = rng_from_seed(314159)
    for _ in range(15):
        R, M, seq = random_instance(rng, k_max=2)
        prof = lipman_profile(M, seq, 2)
        for (i, n), m in prof.entries.items():
            assert m is not None
            assert violating_certificate(M, seq, "lipman", i, n, m) is None
            if m > n:
                assert violating_certificate(M, seq, "lipman", i, n, m - 1) is not None


def test_hom_of_injective_sums_vanishing():
    # Cech homology of Hom(E^s, E^t) vanishes in positive degrees, s,t <= 2
    for modulus in (6, 8):
        R = zmod(modulus)
        E = matlis_dual(ring_as_module(R))
        E2 = module_power(E, 2).module
        for s_mod, t_mod in ((E, E2), (E2, E), (E2, E2)):
            H = hom_module(s_mod, t_mod)
            x = R.from_int(2)
            assert cech_homology([x], H, 1).is_zero_module()


def test_emit_empty_report_all_formats():
    report = Report(body={"schema": 1, "tool": "prokit", "version": "0.1.0",
                          "seed": 0, "task": {}, "analysis_kind": "verify",
                          "results": {}, "exit_code": 0})
    doc = json.loads(emit_report(report, "json").decode())
    assert doc["results"] == {}
    csv = emit_report(report, "csv").decode()
    assert csv.splitlines()[0] == "i,n,m,conclusive"
    text = emit_report(report, "text").decode()
    assert "prokit" in text


@pytest.mark.unchecked_axioms
def test_axioms_task_diagnoses_corrupted_ring():
    # Z/4 with e1*e1 = 3*e1 while the unit claims e1: unit-law failure
    doc = {
        "schema": 1,
        "ring": {"kind": "raw", "orders": [4], "products": [[[3]]], "unit": [1]},
        "analysis": {"kind": "axioms"},
        "seed": 0,
    }
    report = run_task(parse_spec(json.dumps(doc)))
    assert report.exit_code == 1
    failures = report.body["results"]["axioms"]["failures"]
    assert any("unit law" in f for f in failures)


def test_doctests_pass():
    # every module, so that a run of tests/ alone covers the doctests too
    import doctest
    import importlib
    import pkgutil

    import prokit

    names = [info.name for info in pkgutil.iter_modules(prokit.__path__, "prokit.")]
    assert {"prokit.complexes", "prokit.modules", "prokit.tasks"} <= set(names)
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted


def test_suite_checks_axioms_on_every_construction():
    # tests/conftest.py wraps both constructors; without it these would pass
    with pytest.raises(AxiomViolation, match="unit law fails at basis element 0"):
        FiniteRing(FinAbGroup((4,)), [IntMatrix.from_rows([[3]])], (1,))
    G = FinAbGroup((2, 4))
    # the Z/2 generator sent to the Z/4 generator: not a group hom
    action = GroupHom(G, G, IntMatrix.from_rows([[1, 0], [1, 1]]))
    with pytest.raises(AxiomViolation, match="not well defined"):
        FgModule(zmod(2), G, [action])
    # a group hom, but 2 = 0 in Z/2 acts as 2 on Z/4
    with pytest.raises(AxiomViolation, match="not killed by its order"):
        FgModule(zmod(2), FinAbGroup((4,)), [GroupHom.identity(FinAbGroup((4,)))])


def test_suite_checks_trusted_matrix_contract():
    # kernel outputs skip coercion and the length check through
    # IntMatrix._of; tests/conftest.py asserts its contract instead
    for data in ([1, 2], (1,), (1, 2.0), (True, 0)):
        with pytest.raises(AssertionError):
            IntMatrix._of(1, 2, data)
    assert IntMatrix._of(1, 2, (1, -2)) == IntMatrix(1, 2, [1, -2])
    # the public constructor still coerces and checks
    assert IntMatrix(1, 2, [True, 2.0])._data == (1, 2)
    assert all(type(e) is int for e in IntMatrix(1, 2, [True, 2.0])._data)
    with pytest.raises(DimensionMismatch):
        IntMatrix(1, 2, [1])


def test_every_constructor_output_satisfies_axioms():
    # the runtime no longer checks derived rings and modules; check them here
    rng = rng_from_seed(0x7B0D)
    R12 = zmod(12)
    rings = [
        R12,
        zero_ring(),
        product_ring([zmod(4), zmod(6)])[0],
        truncated_two_power(3)[0],
        truncated_polynomial_family(3, 2)[0],
        quotient_ring(R12, ideal(R12, [R12.from_int(4)]))[0],
        localize(R12, R12.from_int(2)).ring,
    ]
    rings += [random_ring(rng)[0] for _ in range(4)]
    for R in rings:
        assert check_ring_axioms(R) == [], R
    for _ in range(6):
        R, M, seq = random_instance(rng, k_max=2)
        x = seq[0]
        I = ideal(R, seq)
        sub = generated_submodule(M, [M.generators()[0]] if M.group.rank else [])
        modules = [
            M,
            zero_module(R),
            ring_as_module(R),
            free_module(R, 2).module,
            module_power(M, 2).module,
            quotient_module(M, sub)[0],
            submodule_module(M, sub)[0],
            cyclic_quotient_module(R, I),
            matlis_dual(M),
            hom_module(M, M),
            tensor_module(M, M),
            local_cohomology(M, I, 0),
            local_cohomology(M, I, 1),
            localize_module(M, localize(R, x)),
        ]
        for N in modules:
            assert N.validate() == [], N
