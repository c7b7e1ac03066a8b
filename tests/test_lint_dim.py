"""Unit tests for the safedim dimensional-analysis pass (SFL100-SFL105).

Covers the dimension lattice, the ``Units:`` grammar, the abstract
interpreter's verdicts on small functions, and — the reason the pass
exists — a seeded-bug check: planting a classic unit mistake in
passing-time-like algebra must produce a finding.
"""

import ast
from fractions import Fraction

import pytest

from repro.lint import LintConfig, lint_paths, lint_source
from repro.lint.dim import (
    ACCEL,
    DIMENSIONLESS,
    METRE,
    NUM,
    SECOND,
    SPEED,
    UNKNOWN,
    Dim,
    UnitSyntaxError,
    format_dim,
    join,
    parse_unit,
)
from repro.lint.dim.annotations import extract_function_units

MODULE = "repro.dynamics.fixture"


def _dim_findings(source, module=MODULE):
    findings = lint_source(source, module=module, config=LintConfig())
    return [f for f in findings if f.rule_id.startswith("SFL10")]


def _ids(findings):
    return {f.rule_id for f in findings}


# ----------------------------------------------------------------------
# Lattice and grammar
# ----------------------------------------------------------------------
def test_parse_unit_base_dimensions():
    assert parse_unit("m") == METRE
    assert parse_unit("s") == SECOND
    assert parse_unit("m/s") == SPEED
    assert parse_unit("m/s^2") == ACCEL
    assert parse_unit("1") == DIMENSIONLESS


def test_parse_unit_products_and_exponents():
    assert parse_unit("m*m") == METRE * METRE
    assert parse_unit("m^2/s^2") == SPEED * SPEED
    assert parse_unit("s^-1") == DIMENSIONLESS / SECOND
    assert parse_unit("m/s/s") == ACCEL


@pytest.mark.parametrize("bad", ["meters", "m//s", "", "m^", "kg", "m s"])
def test_parse_unit_rejects_bad_grammar(bad):
    with pytest.raises(UnitSyntaxError):
        parse_unit(bad)


def test_format_dim_roundtrips():
    for unit in ("m", "s", "m/s", "m/s^2", "1", "m^2/s^3"):
        assert parse_unit(format_dim(parse_unit(unit))) == parse_unit(unit)


def test_dim_algebra():
    assert METRE / SECOND == SPEED
    assert SPEED / SECOND == ACCEL
    assert SPEED * SECOND == METRE
    assert (SPEED * SPEED) / ACCEL == METRE
    assert METRE ** Fraction(1, 2) == Dim(Fraction(1, 2), Fraction(0))


def test_join_lattice_laws():
    assert join(METRE, METRE) == METRE
    assert join(NUM, METRE) == METRE
    assert join(METRE, NUM) == METRE
    assert join(METRE, SECOND) is UNKNOWN
    assert join(UNKNOWN, METRE) is UNKNOWN


# ----------------------------------------------------------------------
# Annotation extraction
# ----------------------------------------------------------------------
def _func_units(source):
    tree = ast.parse(source)
    return extract_function_units(tree.body[0])


def test_docstring_units_directive_parsed():
    units = _func_units(
        "def f(position, dt):\n"
        "    '''Step.\n\n    Units: position [m], dt [s] -> [m]\n    '''\n"
        "    return position\n"
    )
    assert units.params["position"] == METRE
    assert units.params["dt"] == SECOND
    assert units.returns == METRE
    assert not units.issues


def test_annotated_hint_parsed():
    tree = ast.parse(
        "from typing import Annotated\n"
        "def f(v: Annotated[float, 'm/s']):\n"
        "    '''d.'''\n"
        "    return v\n"
    )
    units = extract_function_units(tree.body[1])
    assert units.params["v"] == SPEED


def test_malformed_entry_recorded_as_issue():
    units = _func_units(
        "def f(distance):\n"
        "    '''d.\n\n    Units: distance [furlong]\n    '''\n"
        "    return distance\n"
    )
    assert units.issues


# ----------------------------------------------------------------------
# Checker verdicts
# ----------------------------------------------------------------------
def test_adding_unlike_dimensions_fires_sfl100():
    findings = _dim_findings(
        "def f(position, velocity):\n"
        "    '''d.\n\n    Units: position [m], velocity [m/s]\n    '''\n"
        "    return position + velocity\n"
    )
    assert "SFL100" in _ids(findings)


def test_kinematic_advance_is_clean():
    assert not _dim_findings(
        "def f(position, velocity, dt):\n"
        "    '''d.\n\n    Units: position [m], velocity [m/s], dt [s] -> [m]\n"
        "    '''\n"
        "    return position + velocity * dt\n"
    )


def test_comparing_position_to_time_fires_sfl101():
    findings = _dim_findings(
        "def f(position, horizon):\n"
        "    '''d.\n\n    Units: position [m], horizon [s]\n    '''\n"
        "    return position < horizon\n"
    )
    assert "SFL101" in _ids(findings)


def test_min_max_must_be_homogeneous():
    findings = _dim_findings(
        "def f(position, dt):\n"
        "    '''d.\n\n    Units: position [m], dt [s]\n    '''\n"
        "    return max(position, dt)\n"
    )
    assert "SFL101" in _ids(findings)


def test_passing_seconds_where_metres_expected_fires_sfl102():
    findings = _dim_findings(
        "def gap(distance):\n"
        "    '''d.\n\n    Units: distance [m] -> [m]\n    '''\n"
        "    return distance\n"
        "def f(dt):\n"
        "    '''d.\n\n    Units: dt [s]\n    '''\n"
        "    return gap(dt)\n"
    )
    assert "SFL102" in _ids(findings)


@pytest.mark.parametrize(
    "arguments, expected",
    [("stamp, position", set()), ("position, stamp", {"SFL102"})],
)
def test_classmethod_called_through_an_imported_class(tmp_path, arguments, expected):
    # ``cls`` is not a positional argument of ``Record.of(...)``.
    package = tmp_path / "repro" / "dynamics"
    package.mkdir(parents=True)
    (package / "records.py").write_text(
        "class Record:\n"
        "    @classmethod\n"
        "    def of(cls, stamp, position):\n"
        "        '\''d.\n\n        Units: stamp [s], position [m]\n        '\''\n"
        "        return cls()\n"
    )
    (package / "user.py").write_text(
        "from repro.dynamics.records import Record\n"
        "def make(stamp, position):\n"
        "    '\''d.\n\n    Units: stamp [s], position [m]\n    '\''\n"
        f"    return Record.of({arguments})\n"
    )
    findings = lint_paths([tmp_path / "repro"], LintConfig()).findings
    assert {f.rule_id for f in findings if f.rule_id.startswith("SFL10")} == expected


def test_return_contradicting_declaration_fires_sfl103():
    findings = _dim_findings(
        "def f(velocity, decel):\n"
        "    '''d.\n\n    Units: velocity [m/s], decel [m/s^2] -> [s]\n"
        "    '''\n"
        "    return velocity * decel\n"
    )
    assert "SFL103" in _ids(findings)


def test_sqrt_halves_exponents():
    assert not _dim_findings(
        "import math\n"
        "def f(accel, distance):\n"
        "    '''d.\n\n    Units: accel [m/s^2], distance [m] -> [m/s]\n"
        "    '''\n"
        "    return math.sqrt(2.0 * accel * distance)\n"
    )


def test_branch_merge_joins_to_unknown_without_flagging():
    # One branch yields [m], the other [s]: the merge is UNKNOWN, and
    # downstream arithmetic must not produce spurious findings.
    assert not _dim_findings(
        "def f(position, horizon, flag):\n"
        "    '''d.\n\n    Units: position [m], horizon [s]\n    '''\n"
        "    x = position if flag else horizon\n"
        "    return x + position\n"
    )


def test_numeric_literals_are_polymorphic():
    assert not _dim_findings(
        "def f(velocity):\n"
        "    '''d.\n\n    Units: velocity [m/s] -> [m/s]\n    '''\n"
        "    return max(velocity, 0.0)\n"
    )


def test_missing_units_on_public_kinematics_fires_sfl105():
    findings = _dim_findings(
        "def f(position, velocity):\n"
        "    '''d.'''\n"
        "    return position\n"
    )
    assert _ids(findings) == {"SFL105"}


def test_private_function_not_required_to_declare():
    assert not _dim_findings(
        "def _f(position, velocity):\n"
        "    '''d.'''\n"
        "    return position\n"
    )


def test_out_of_scope_module_is_ignored():
    findings = _dim_findings(
        "def f(position, velocity):\n"
        "    '''d.\n\n    Units: position [m], velocity [m/s]\n    '''\n"
        "    return position + velocity\n",
        module="repro.analysis.fixture",
    )
    assert not findings


def test_inline_suppression_works_for_dim_rules():
    findings = _dim_findings(
        "def f(position, velocity):\n"
        "    '''d.\n\n    Units: position [m], velocity [m/s]\n    '''\n"
        "    return position + velocity  "
        "# safelint: disable=SFL100 -- test\n"
    )
    assert "SFL100" not in _ids(findings)


# ----------------------------------------------------------------------
# The seeded bug: passing-time algebra with a swapped unit
# ----------------------------------------------------------------------
_PASSING_TIME_TEMPLATE = (
    "import math\n"
    "def earliest_arrival(distance, velocity, v_cap, a_cap):\n"
    "    '''Eq. (7)-style earliest arrival.\n"
    "\n"
    "    Units: distance [m], velocity [m/s], v_cap [m/s], "
    "a_cap [m/s^2] -> [s]\n"
    "    '''\n"
    "    d_ramp = (v_cap * v_cap - velocity * velocity) / (2.0 * {accel})\n"
    "    if d_ramp >= distance:\n"
    "        v_end = math.sqrt("
    "velocity * velocity + 2.0 * {accel} * distance)\n"
    "        return (v_end - velocity) / {accel}\n"
    "    t_ramp = (v_cap - velocity) / {accel}\n"
    "    return t_ramp + (distance - d_ramp) / v_cap\n"
)


def test_correct_passing_time_algebra_is_clean():
    source = _PASSING_TIME_TEMPLATE.format(accel="a_cap")
    assert not _dim_findings(source)


def test_seeded_unit_swap_in_passing_time_algebra_is_caught():
    # The classic mistake: dividing by the speed cap [m/s] where the
    # acceleration cap [m/s^2] belongs.  Every ramp term shifts by one
    # power of time and the pass must notice.
    source = _PASSING_TIME_TEMPLATE.format(accel="v_cap")
    findings = _dim_findings(source)
    assert findings, "seeded [m/s] / [m/s^2] swap went undetected"
    assert _ids(findings) & {"SFL100", "SFL101", "SFL102", "SFL103"}
