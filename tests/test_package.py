"""The package surface: public names, the immutable records, the layering
of its modules, and what each entry point imports."""

import ast
import copy
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import footprint
import psemigroups
from psemigroups import GeneratorSet, PreconditionError, PSemigroup, Report, SymmetryReport
from psemigroups import build, classify, cli

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# public names

@pytest.mark.parametrize("name", psemigroups.__all__)
def test_every_public_name_imports(name):
    namespace = {}
    exec(f"from psemigroups import {name}", namespace)
    assert namespace[name] is getattr(psemigroups, name)


def test_lazy_names_are_the_module_functions():
    from psemigroups import arf, exactmath, identities, symmetry

    assert psemigroups.is_arf is arf.is_arf
    assert psemigroups.verify_johnson is identities.verify_johnson
    assert psemigroups.classify is symmetry.classify
    assert psemigroups.arf is arf
    assert psemigroups.bernoulli is exactmath.bernoulli


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        psemigroups.no_such_name  # noqa: B018


def test_denumerant_is_the_function():
    assert callable(psemigroups.denumerant)
    assert psemigroups.denumerant((4, 5), 20) == 2


# ---------------------------------------------------------------------------
# records

def _records():
    sp = build((4, 5, 6), 2)
    return [
        (GeneratorSet((4, 5, 6)), GeneratorSet((4, 5, 6)), GeneratorSet((4, 6, 5))),
        (sp, build((4, 5, 6), 2), build((4, 5, 6), 3)),
        (classify(sp), classify(build((4, 5, 6), 2)), classify(build((3, 5), 0))),
        (Report("closure", True), Report("closure", True), Report("closure", False)),
    ]


@pytest.mark.parametrize("same, twin, other", _records(), ids=lambda r: type(r).__name__)
def test_records_compare_and_print_by_value(same, twin, other):
    assert same is not twin
    assert same == twin and not same != twin
    assert same != other
    assert same != tuple(getattr(same, f) for f in type(same).__slots__)
    assert repr(same) == repr(twin) != repr(other)
    assert repr(same).startswith(type(same).__name__ + "(")
    assert copy.copy(same) == same
    assert pickle.loads(pickle.dumps(same)) == same


@pytest.mark.parametrize("same, twin, other", _records()[:3], ids=lambda r: type(r).__name__)
def test_hashable_records_hash_by_value(same, twin, other):
    assert hash(same) == hash(twin)
    assert len({same, twin, other}) == 2


def test_report_with_details_is_unhashable():
    with pytest.raises(TypeError):
        hash(Report("series", True, details={"first_mismatch": None}))


@pytest.mark.parametrize("record", [r[0] for r in _records()], ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    field = type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_reports_get_their_own_details():
    first, second = Report("closure", True), Report("closure", True)
    first.details["witness"] = None
    assert second.details == {}
    assert first.details is not second.details


def test_report_constructor_calls():
    report = Report("series", passed=False, details={"first_mismatch": 3})
    assert (report.applicable, report.note, report.details) == (True, "", {"first_mismatch": 3})
    full = Report("closure", True, False, "why", {"witness": None})
    assert full == Report(
        kind="closure", passed=True, applicable=False, note="why", details={"witness": None}
    )


def test_record_constructor_binds_like_a_signature():
    sr = classify(build((4, 5, 6), 2))
    values = [getattr(sr, f) for f in SymmetryReport.__slots__]
    assert SymmetryReport(*values) == sr
    assert SymmetryReport(*values[:2], **dict(zip(SymmetryReport.__slots__[2:], values[2:]))) == sr
    with pytest.raises(TypeError):
        SymmetryReport(*values[:-1])
    with pytest.raises(TypeError):
        SymmetryReport(*values, values[0])
    with pytest.raises(TypeError):
        SymmetryReport(*values[:-1], pf=values[0])
    with pytest.raises(TypeError):
        SymmetryReport(*values, colour="red")


def test_symmetry_report_stores_only_pf_and_the_flags():
    # the type is len(pf): a stored copy of a derived value is one more route
    assert SymmetryReport.__slots__ == ("pf", *cli._SYMMETRY_FLAGS)


def test_generator_set_validates_and_keeps_a_tuple():
    assert GeneratorSet([5, 4]).ordered == (5, 4)
    assert GeneratorSet(ordered=iter((4, 5))) == GeneratorSet((4, 5))
    for bad in ((4,), (1, 3), (4, 4, 5), (4, 6), (4, True), (4, 5.0)):
        with pytest.raises(PreconditionError):
            GeneratorSet(bad)


def test_psemigroup_fields_are_its_slots():
    sp = build((4, 5, 6), 2)
    assert isinstance(sp, PSemigroup)
    # an instance is its generators and what its class minima give: no p
    assert PSemigroup.__slots__[:3] == ("generators", "modulus", "apery_by_residue")
    assert not hasattr(sp, "p")
    assert sp.frobenius == max(sp.apery_by_residue) - sp.modulus


# ---------------------------------------------------------------------------
# layering: a module reads no other module's private names

SOURCES = sorted((ROOT / "src" / "psemigroups").glob("*.py"))


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_reads(source):
    """Each import of a private name, and each read of a private attribute
    of an imported name, in one source file: (line, what)."""
    tree = ast.parse(source)
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
                if isinstance(node, ast.ImportFrom) and _is_private(alias.name):
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and _is_private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_reads_no_private_name_of_another(path):
    assert _private_reads(path.read_text()) == []


def test_private_reads_are_found():
    source = (
        "from .semigroup import _round_robin, build\n"
        "from . import semigroup as sg\n"
        "import sys\n"
        "sg._member_flags(sp, 1)\n"
        "sys.__name__, sp._private, sg.build\n"
    )
    assert _private_reads(source) == [(1, "_round_robin"), (4, "sg._member_flags")]


# ---------------------------------------------------------------------------
# layering: the build layer imports no module above it

# (the function or class whose body holds the import, None at module level,
# module) for each package module that semigroup.py may import
BUILD_LAYER_IMPORTS = {
    (None, "denumerant"), (None, "errors"), (None, "reports"), ("PSemigroup.gaps", "sets"),
}


def _package_imports(source):
    """(the qualified name of the function or class whose body holds the
    import, None at module level, module) for each module of the package
    that one source file imports."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                # "from . import sets" imports sets, "from .sets import x" sets
                names = [child.module] if child.module else [a.name for a in child.names]
                modules = [f"psemigroups.{n}" if child.level else n for n in names]
            else:
                modules = []
            for module in modules:
                if module.startswith("psemigroups."):
                    found.add((scope, module.partition(".")[2]))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_build_layer_imports_only_the_layers_below_it():
    source = (ROOT / "src" / "psemigroups" / "semigroup.py").read_text()
    assert _package_imports(source) <= BUILD_LAYER_IMPORTS


def test_package_imports_are_found():
    source = (
        "import sys\n"
        "from .errors import PreconditionError\n"
        "from . import sets\n"
        "class PSemigroup:\n"
        "    def gaps(self):\n"
        "        from .exactmath import bernoulli\n"
        "def build():\n"
        "    import psemigroups.symmetry\n"
    )
    assert _package_imports(source) == {
        (None, "errors"), (None, "sets"),
        ("PSemigroup.gaps", "exactmath"), ("build", "symmetry"),
    }


# ---------------------------------------------------------------------------
# import footprint: each entry point loads only what it runs.  -X importtime
# names every module a fresh interpreter imports; a bare interpreter's are
# taken away, so that site hooks cannot trip the test.

HEAVY = {"dataclasses", "inspect", "psemigroups.arf", "psemigroups.identities"}
# the package code that no json table or classify runs: the F-sized sets
# and their text; the symmetry verifiers; the tsv and pretty writers and
# sums
MOVED = {"psemigroups.sets", "psemigroups.criteria", "psemigroups.cli_more"}
# what only some commands run: the symmetry classification; the rationals
# of weights and Bernoulli numbers, and of any value printed as one; the
# Bernoulli and Eulerian numbers themselves, with the rational power-sum
# rows; the merge of the class minima's lists; and MOVED
ON_USE = {"psemigroups.symmetry", "fractions", "decimal", "psemigroups.exactmath", "heapq", *MOVED}


def _imported(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return names, result


@pytest.fixture(scope="module")
def new_imports():
    bare, _ = _imported("-c", "pass")

    def run(*args):
        names, result = _imported(*args)
        assert result.returncode == 0, result.stderr
        return names - bare, result.stdout

    return run


def test_parser_imports_no_heavy_module(new_imports):
    names, _ = new_imports("-c", "import psemigroups.cli as c; c.build_parser()")
    assert "psemigroups.cli" in names
    assert not names & HEAVY


def test_parser_imports_neither_symmetry_nor_fractions(new_imports):
    # the set-up every psg call pays, as the benchmark's setup_s times it
    names, _ = new_imports("-c", "import psemigroups.cli as c; c.build_parser()")
    assert "psemigroups.semigroup" in names
    assert not names & ON_USE


def test_table_of_plain_fields_imports_neither_symmetry_nor_fractions(new_imports):
    names, out = new_imports("-m", "psemigroups", "table", "--gens", "8,9,10",
                             "--p", "1321..1832", "--field", "frobenius,genus")
    assert json.loads(out)["rows"][-1]["p"] == 1832
    assert not names & (HEAVY | ON_USE)


def test_classify_imports_neither_arf_nor_identities(new_imports):
    names, out = new_imports("-m", "psemigroups", "classify", "--gens", "4,5", "--p", "0")
    assert json.loads(out)["rows"][0]["symmetric"] is True
    assert names & (HEAVY | ON_USE) == {"psemigroups.symmetry"}


# The calls whose compiled source tests/footprint.py counts, each with its
# bound in AST nodes: the set-up every call pays, the table and classify
# shapes of the benchmark's high-p workload, which load none of MOVED,
# and an analyze and a verify shape, which load one module of it each.
LEAN = [
    None,
    "table --gens 8,9,10 --p 1321..1832 --field frobenius,genus",
    "classify --gens 12,14,17,21 --p 1417..1928",
]
COUNTED = {
    **dict(zip(LEAN, (7800, 7800, 8300))),
    "analyze --gens 1009,1013,1019 --p 50": 10000,
    "verify symmetry --gens 201,207,322 --p 4..16": 9500,
}


@pytest.mark.parametrize("call", COUNTED)
def test_a_call_compiles_at_most_its_counted_cost(call):
    assert footprint.cost(call and call.split()) <= COUNTED[call]


def _readme_cost(call):
    """The AST nodes that README's start-up notes give for the command of
    ``call``: one sentence names a json table, a classify, an analyze and
    a verify symmetry."""
    text = " ".join((ROOT / "README.md").read_text().split())
    sentence = re.search(r"A json `table` compiles [^.]*\.", text)
    assert sentence, "README's footprint sentence is gone"
    figures = dict(re.findall(r"`([a-z ]+)`(?: compiles)? ([\d,]+)", sentence[0]))
    (command,) = [command for command in figures if call.startswith(command + " ")]
    return int(figures[command].replace(",", ""))


@pytest.mark.parametrize("call", [call for call in COUNTED if call])
def test_readme_gives_the_counted_cost_of_each_call(call):
    assert _readme_cost(call) == footprint.cost(call.split())


@pytest.mark.parametrize("call", LEAN)
def test_counted_calls_load_none_of_the_moved_code(new_imports, call):
    args = ["-m", "psemigroups", *call.split()] if call else ["-c", footprint.SETUP]
    names, _ = new_imports(*args)
    assert "psemigroups.cli" in names
    assert not names & MOVED


@pytest.mark.parametrize("argv, module", [
    ("analyze --gens 4,5 --p 0", "psemigroups.sets"),
    ("table --gens 4,5 --p 0 --format tsv", "psemigroups.cli_more"),
    ("classify --gens 4,5 --p 0 --format pretty", "psemigroups.cli_more"),
    ("verify symmetry --gens 4,5,6 --p 0..2", "psemigroups.criteria"),
    ("sums --gens 4,5 --p 1 --mu 2 --weight 1/2", "psemigroups.exactmath"),
])
def test_a_command_loads_the_moved_code_it_runs(new_imports, argv, module):
    names, out = new_imports("-m", "psemigroups", *argv.split())
    assert out
    assert module in names


@pytest.mark.parametrize("argv, module", [
    # the verify rows and exit code are cli's own
    ("verify symmetry --gens 4,5,6 --p 0..2", "psemigroups.cli_more"),
    ("verify gcd-scaling --gens 203,366,388 --p 0..1", "psemigroups.cli_more"),
    # the layout pattern is symmetry's, beside the classification
    ("table --gens 8,9,10 --p 1321..1332 --field pattern", "psemigroups.criteria"),
    ("analyze --gens 4,5 --p 0", "psemigroups.criteria"),
    # the scaling identities are integer ones, and only watanabe classifies
    ("verify johnson --alpha 9 --beta 2 --gens 4,5 --p 0..2", "fractions"),
    ("verify johnson --alpha 9 --beta 2 --gens 4,5 --p 0..2", "psemigroups.symmetry"),
    ("verify gcd-scaling --gens 203,366,388 --p 0..1", "fractions"),
    ("verify gcd-scaling --gens 203,366,388 --p 0..1", "psemigroups.symmetry"),
    ("verify watanabe --alpha 9 --beta 2 --gens 4,5 --p 0..2", "fractions"),
])
def test_a_command_loads_none_of_the_moved_code_it_does_not_run(new_imports, argv, module):
    names, out = new_imports("-m", "psemigroups", *argv.split())
    assert out
    assert "psemigroups.cli" in names
    assert module not in names


def test_sums_imports_neither_arf_nor_identities(new_imports):
    names, out = new_imports(
        "-m", "psemigroups", "sums", "--gens", "4,5", "--p", "1", "--mu", "2", "--weight", "1/2"
    )
    assert json.loads(out)["rows"][2]["direct"] == 6290
    assert {"psemigroups.semigroup", "fractions", "psemigroups.exactmath"} <= names
    assert not names & HEAVY


def test_sums_without_a_weight_imports_no_eulerian_row(new_imports):
    # the unweighted rows read _FAULHABER, built at import without exactmath
    names, out = new_imports("-m", "psemigroups", "sums", "--gens", "4,5", "--p", "1", "--mu", "8")
    assert json.loads(out)["rows"][2]["direct"] == 6290
    assert not names & (HEAVY | {"psemigroups.exactmath", "fractions"})


def test_verify_eulerian_gf_imports_exactmath(new_imports):
    names, out = new_imports(
        "-m", "psemigroups", "verify", "eulerian-gf", "--exponent", "3", "--order", "12"
    )
    assert json.loads(out)["passed"] is True
    assert "psemigroups.exactmath" in names
    assert not names & (HEAVY | {"psemigroups.symmetry"})


def test_only_the_lists_route_imports_heapq(new_imports):
    # a*p << F: the class minima come from the (p+1)-best lists, merged by
    # heapq.merge; the table route of the high-p call above loads no heapq
    names, out = new_imports("-m", "psemigroups", "classify", "--gens", "279,349,403,471",
                             "--p", "46..55")
    assert [row["p"] for row in json.loads(out)["rows"]] == list(range(46, 56))
    assert "heapq" in names


def test_verify_arf_kunz_imports_arf(new_imports):
    names, out = new_imports("-m", "psemigroups", "verify", "arf-kunz", "--gens", "4,5,6", "--p", "2")
    assert json.loads(out)["passed"] is True
    assert "psemigroups.arf" in names
    assert "psemigroups.identities" not in names


def test_a_lazy_name_loads_its_module_where_importtime_sees_it(new_imports):
    names, _ = new_imports("-c", "import psemigroups; psemigroups.is_arf")
    assert "psemigroups.arf" in names
    assert "psemigroups.identities" not in names
