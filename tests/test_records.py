"""The result records: named tuples with fixed reprs, and a light import.

Every record is a ``collections.namedtuple``, so importing gaplab loads no
``dataclasses`` (and through it ``inspect``), no ``typing`` and, until the
omega column is rendered, no ``decimal``; building the CLI parser loads no
``shutil``.  So no annotation may name what only a function body imports:
every function's type hints resolve.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import typing
from decimal import Decimal

import pytest

import gaplab
from gaplab import FamilySpec, complete_graph, cycle_power, decide
from gaplab.families import COMPLETE
from gaplab.strength import RemovalPlan, construct_upper, power_law_column

# Loads the standard-library modules gaplab itself imports first, so that the
# check below sees only what gaplab adds, on any Python version.
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import argparse, bisect, collections, functools, itertools, math, operator
before = set(sys.modules)
import gaplab, gaplab.cli
gaplab.cli.build_parser()
report = {"loaded": sorted(set(sys.modules) - before), "shutil": "shutil" in sys.modules}
from gaplab import strength
print(json.dumps({**report, "omega_5": str(strength.power_law_column(5)[5])}))
"""


def test_fresh_interpreter_loads_no_dataclasses_typing_or_decimal():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gaplab.__file__)))
    out = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE, src],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    report = json.loads(out)
    assert "gaplab.cli" in report["loaded"]
    heavy = {"dataclasses", "inspect", "typing", "decimal"} & set(report["loaded"])
    assert not heavy, f"importing gaplab loaded {sorted(heavy)}"
    # Nor shutil (and with it bz2 and lzma), which argparse's stock help
    # formatter imports; under -S, site has not loaded it either.
    assert not report["shutil"]
    # decimal loads on first use, in the same process.
    assert Decimal(report["omega_5"]) == Decimal("0.2070")


def test_every_annotation_resolves():
    # A name that only a function body imports (decimal's Decimal, say) must
    # not appear in an annotation, or get_type_hints raises NameError.
    functions = []
    for info in pkgutil.iter_modules(gaplab.__path__):
        module = importlib.import_module(f"gaplab.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                functions += filter(inspect.isfunction, vars(obj).values())
            elif inspect.isfunction(obj):
                functions.append(obj)
    assert power_law_column in functions
    for f in functions:
        typing.get_type_hints(f)


def records():
    return {
        "FamilySpec": FamilySpec(COMPLETE, 3),
        "DecisionResult": decide(cycle_power(6, 2)),
        "RemovalPlan": RemovalPlan(((9, 3, 4), (5, 2, 1)), 9),
        "UpperBoundConstruction": construct_upper(5),
        "Graph": complete_graph(4),
    }


def test_record_reprs():
    assert {name: repr(r) for name, r in records().items()} == {
        "FamilySpec": "FamilySpec(family='complete', n=3, k=None)",
        "DecisionResult": "DecisionResult(labelable=True, "
        "witness=(172, 98, 156, 113, 142, 130), assignments_tried=6)",
        "RemovalPlan": "RemovalPlan(steps=((9, 3, 4), (5, 2, 1)), total_removed=9)",
        "UpperBoundConstruction": "UpperBoundConstruction(removed=((1, 4), (2, 3)), "
        "labelling=(16, 1, 8, 8, 2), "
        "plan=RemovalPlan(steps=((5, 2, 1),), total_removed=2))",
        "Graph": "Graph(n=4, m=6)",
    }


FIELDS = {
    "FamilySpec": ("family", "n", "k"),
    "DecisionResult": ("labelable", "witness", "assignments_tried"),
    "RemovalPlan": ("steps", "total_removed"),
    "UpperBoundConstruction": ("removed", "labelling", "plan"),
    "Graph": ("n", "adjacency"),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_fields_cannot_be_assigned(name):
    record = records()[name]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_graph_hash_and_equality_are_its_fields():
    g = complete_graph(4)
    assert hash(g) == hash((g.n, g.adjacency))
    assert g == complete_graph(4) and g != complete_graph(5)


def test_family_spec_keywords_and_checks():
    spec = FamilySpec(family=COMPLETE, n=3)
    assert spec.k is None and spec == FamilySpec(COMPLETE, 3, None)
    with pytest.raises(ValueError, match="unknown family 'star'"):
        FamilySpec("star", 4)
    with pytest.raises(ValueError, match="cycle-power needs a power k"):
        FamilySpec("cycle-power", 8)
