"""Every exported name and every benchmark trace target must resolve.

Each public name is listed once, in the ``__all__`` of the module that
defines it, and the package exports the concatenation of those lists. The
modules checked here are the ones the package's exports come from, so adding
a module to ``bracekit/__init__.py`` adds it to these checks.

The traced benchmark run (perfbench/spans.py) patches the functions it
measures by module and attribute, so deleting or renaming one of them would
break that run without failing any behavioural test.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import bracekit

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# sorted(bracekit.__all__): adding or removing a public name edits this list too
PUBLIC_NAMES = """
ActionNotAutomorphismError AsymmetricProductBrace AxiomReport AxiomsNotVerifiedError
BelowBoundError BilinearForm BlockData BoundsReport BraceElement BracekitError
BudgetExceededError ConditionViolationError FamilyBlock FamilyReport
FamilySpec FiniteBrace GroupReport IdealRecord IncompleteLatticeError KINDS
KindPrimeMismatchError NoWitnessError NotAUnitError OrthogonalMap
PrimeResult ResidueMatrix SchemaError SemidirectProductBrace SimplicityResult
SingularMatrixError SolutionFormatError SolutionReport SolutionTable TableBrace
TrivialBrace additive_generators build_family build_prime_example check_axioms
check_solution companion_cyclotomic derived_subgroup divides_orthogonal_order dump_spec
exponent_lower_bounds export_solution family_order find_orthogonal_element group_report
has_prime_order hyperbolic_witness ideal_closure import_solution is_A_group is_abelian is_ideal
is_left_ideal is_metabelian is_orthogonal is_prime is_prime_brace is_simple list_ideals
load_spec minimal_witness_dimension minus_id_bijective
multiplicative_closure nonsimple_witness nu nullspace_mod orthogonal_group_order
parse_spec solution_from_brace solve_exponents star_span sylow_left_ideals tabulate
unit_order validate_spec verify_prime_example witness_block
""".split()


def _is_definition(obj) -> bool:
    return inspect.isclass(obj) or inspect.isfunction(obj)


# the modules that define the package's exported classes and functions
SUBMODULES = sorted(
    {
        getattr(bracekit, name).__module__.removeprefix("bracekit.")
        for name in bracekit.__all__
        if _is_definition(getattr(bracekit, name))
    }
)


def _module(name):
    return importlib.import_module("bracekit" + ("." + name if name else ""))


def _trace_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_trace_targets_resolve():
    targets = _trace_targets()
    assert targets
    for _, module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


@pytest.mark.parametrize("module_name", [""] + SUBMODULES)
def test_all_names_exist(module_name):
    module = _module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing


def _top_level_assignments(module) -> set:
    body = ast.parse(inspect.getsource(module)).body
    return {
        t.id
        for node in body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name)
    }


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_module_lists_exactly_what_it_defines(module_name):
    module = _module(module_name)
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and _is_definition(obj) and obj.__module__ == module.__name__
    }
    listed = {name for name in module.__all__ if _is_definition(getattr(module, name))}
    assert listed == defined
    # an entry that is neither class nor function is a constant assigned here
    constants = set(module.__all__) - listed
    assert constants <= _top_level_assignments(module)


def test_package_list_is_the_concatenation_of_module_lists():
    exported = bracekit.__all__
    assert len(exported) == len(set(exported))
    modules = [_module(name) for name in SUBMODULES]
    owner = {name: module for module in modules for name in module.__all__}
    order = list(dict.fromkeys(owner[name] for name in exported))
    assert len(order) == len(modules)
    assert exported == [name for module in order for name in module.__all__]
    for name in exported:
        assert getattr(bracekit, name) is getattr(owner[name], name), name


def test_public_names_are_pinned():
    assert sorted(bracekit.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 81
