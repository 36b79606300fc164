"""Axiom checks on every ring and module the test suite constructs.

`FiniteRing` and `FgModule` are plain constructors: at runtime only raw ring
tables are checked (`ring_from_raw`), because every other ring and module is
built by a construction that keeps the axioms.  The suite proves that claim
on each construction it makes: the autouse fixture below wraps both
`__init__`s so that each ring runs `check_ring_axioms` and each module runs
`validate()`, raising AxiomViolation with the first three failures.

A test that builds a broken table on purpose opts out with
`@pytest.mark.unchecked_axioms`.

`IntMatrix._of`, the trusted constructor of kernel outputs, coerces and
checks nothing at runtime; a second autouse fixture asserts its contract (a
tuple of exactly rows * cols ints) on every call the suite makes.
"""

import pytest

from prokit.errors import AxiomViolation
from prokit.intlinalg import IntMatrix
from prokit.modules import FgModule
from prokit.rings import FiniteRing, check_ring_axioms


def _raise_on(failures):
    if failures:
        raise AxiomViolation("; ".join(failures[:3]))


@pytest.fixture(autouse=True)
def check_axioms_on_construction(request, monkeypatch):
    if request.node.get_closest_marker("unchecked_axioms"):
        return
    ring_init = FiniteRing.__init__
    module_init = FgModule.__init__

    def checked_ring_init(self, *args, **kwargs):
        ring_init(self, *args, **kwargs)
        _raise_on(check_ring_axioms(self))

    def checked_module_init(self, *args, **kwargs):
        module_init(self, *args, **kwargs)
        _raise_on(self.validate())

    monkeypatch.setattr(FiniteRing, "__init__", checked_ring_init)
    monkeypatch.setattr(FgModule, "__init__", checked_module_init)


@pytest.fixture(autouse=True)
def check_trusted_matrices(monkeypatch):
    trusted = IntMatrix._of.__func__

    def checked_of(cls, rows, cols, data):
        assert type(data) is tuple, f"trusted matrix data is a {type(data).__name__}"
        assert len(data) == rows * cols, f"{len(data)} entries for {rows}x{cols}"
        assert all(type(e) is int for e in data), "trusted matrix entry is not an int"
        return trusted(cls, rows, cols, data)

    monkeypatch.setattr(IntMatrix, "_of", classmethod(checked_of))
