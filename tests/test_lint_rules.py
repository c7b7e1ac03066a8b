"""Per-rule safelint tests against the fixtures in ``lint_fixtures/``.

Every rule must (a) fire on its ``*_bad.py`` fixture and (b) stay
silent on its ``*_good.py`` fixture.  Fixtures are linted with an
injected module name so package-scoped rules (sim/math/planner/units)
apply to them exactly as they would inside the real tree.
"""

from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_source

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: rule id -> (fixture stem, injected module name)
RULE_FIXTURES = {
    "SFL001": ("float_equality", "repro.analysis.fixture"),
    "SFL002": ("mutable_default", "repro.analysis.fixture"),
    "SFL003": ("broad_except", "repro.sim.fixture"),
    "SFL004": ("wall_clock", "repro.sim.fixture"),
    "SFL005": ("global_rng", "repro.analysis.fixture"),
    "SFL006": ("unguarded_division", "repro.scenarios.fixture"),
    "SFL007": ("plan_clamp", "repro.planners.fixture"),
    "SFL008": ("units_docstring", "repro.dynamics.fixture"),
    "SFL009": ("no_dynamic_code", "repro.analysis.fixture"),
    "SFL010": ("silent_except", "repro.analysis.fixture"),
    "SFL011": ("obs_flow", "repro.sim.fixture"),
    "SFL012": ("unseeded_rng", "repro.analysis.fixture"),
    "SFL100": ("dim_add", "repro.dynamics.fixture"),
    "SFL101": ("dim_compare", "repro.dynamics.fixture"),
    "SFL102": ("dim_call", "repro.dynamics.fixture"),
    "SFL103": ("dim_return", "repro.dynamics.fixture"),
    "SFL104": ("dim_annotation", "repro.dynamics.fixture"),
    "SFL105": ("dim_missing_units", "repro.dynamics.fixture"),
    "SFL200": ("shape_matmul", "repro.filtering.fixture"),
    "SFL201": ("shape_broadcast", "repro.filtering.fixture"),
    "SFL202": ("shape_axis", "repro.nn.fixture"),
    "SFL203": ("shape_dtype_narrowing", "repro.nn.fixture"),
    "SFL204": ("shape_missing", "repro.nn.fixture"),
    "SFL205": ("shape_binding", "repro.filtering.fixture"),
    "SFL300": ("flow_vectorize", "repro.sim.fixture"),
    "SFL301": ("flow_global", "repro.sim.fixture"),
    "SFL302": ("flow_accumulate", "repro.sim.fixture"),
    "SFL303": ("flow_nondet", "repro.sim.fixture"),
    "SFL304": ("flow_hoist", "repro.sim.fixture"),
    "SFL305": ("flow_contradiction", "repro.sim.fixture"),
    "SFL306": ("flow_rng", "repro.sim.fixture"),
}


def _findings_for(rule_id, stem, module):
    source = (FIXTURES / f"{stem}.py").read_text(encoding="utf-8")
    findings = lint_source(
        source, path=f"{stem}.py", module=module, config=LintConfig()
    )
    return [f for f in findings if f.rule_id == rule_id]


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_fires_on_bad_fixture(rule_id):
    stem, module = RULE_FIXTURES[rule_id]
    findings = _findings_for(rule_id, f"{stem}_bad", module)
    assert findings, f"{rule_id} did not fire on {stem}_bad.py"
    for finding in findings:
        assert finding.rule_id == rule_id
        assert finding.line >= 1
        assert finding.message


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_silent_on_good_fixture(rule_id):
    stem, module = RULE_FIXTURES[rule_id]
    findings = _findings_for(rule_id, f"{stem}_good", module)
    assert not findings, (
        f"{rule_id} false-positives on {stem}_good.py: "
        f"{[f.format_text() for f in findings]}"
    )


def test_every_registered_rule_has_a_fixture_pair():
    from repro.lint import rule_ids

    assert set(rule_ids()) == set(RULE_FIXTURES)
    for stem, _ in RULE_FIXTURES.values():
        assert (FIXTURES / f"{stem}_bad.py").is_file()
        assert (FIXTURES / f"{stem}_good.py").is_file()


# ----------------------------------------------------------------------
# Targeted edge cases per rule, beyond the fixture files
# ----------------------------------------------------------------------
def _lint(source, module="repro.sim.fixture"):
    return lint_source(source, module=module, config=LintConfig())


def test_float_equality_exempts_zero_and_sentinels():
    clean = (
        "NEVER = float('inf')\n"
        "def f(velocity, entry):\n"
        "    '''d.'''\n"
        "    return velocity == 0.0 or entry == NEVER\n"
    )
    assert not [f for f in _lint(clean) if f.rule_id == "SFL001"]


def test_float_equality_exempts_pytest_approx():
    # ``x == pytest.approx(y)`` IS the tolerance comparison the rule
    # asks for; both the attribute and the bare-import spelling pass.
    clean = (
        "import pytest\n"
        "from pytest import approx\n"
        "def f(velocity, stamp):\n"
        "    '''d.'''\n"
        "    assert velocity == pytest.approx(20.0)\n"
        "    assert stamp == approx(1.0)\n"
    )
    assert not [f for f in _lint(clean) if f.rule_id == "SFL001"]


def test_float_equality_flags_chained_comparison():
    source = "def f(t, t_goal, other):\n    '''d.'''\n    return other < t == t_goal\n"
    assert [f for f in _lint(source) if f.rule_id == "SFL001"]


def test_scoped_rule_ignores_out_of_scope_module():
    source = "import time\ndef f():\n    '''d.'''\n    return time.time()\n"
    findings = lint_source(
        source, module="repro.analysis.fixture", config=LintConfig()
    )
    assert not [f for f in findings if f.rule_id == "SFL004"]


def test_plan_clamp_ignores_module_level_plan_function():
    source = "def plan(context):\n    '''d.'''\n    return 1e9\n"
    findings = lint_source(
        source, module="repro.planners.fixture", config=LintConfig()
    )
    assert not [f for f in findings if f.rule_id == "SFL007"]


def test_plan_clamp_checks_float_entry_points():
    """plan_floats() is a plan method: its raw return and a traced call
    of a method not reached through self are both flagged."""
    findings = _findings_for("SFL007", "plan_clamp_bad", "repro.planners.fixture")
    flagged = sorted(f.line for f in findings if "plan_floats()" in f.message)
    source = (FIXTURES / "plan_clamp_bad.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    assert [lines[n - 1].strip()[:24] for n in flagged] == [
        "return traced_call(trace",
        "return self._gain * (sel",
    ]


def test_division_guard_propagates_through_assignment():
    source = (
        "def f(a_floor, distance):\n"
        "    '''d.'''\n"
        "    if a_floor == 0.0:\n"
        "        return 0.0\n"
        "    decel = -a_floor\n"
        "    return distance / decel\n"
    )
    findings = lint_source(
        source, module="repro.scenarios.fixture", config=LintConfig()
    )
    assert not [f for f in findings if f.rule_id == "SFL006"]


def test_division_by_attribute_is_exempt():
    source = (
        "def f(self_like, distance, limits):\n"
        "    '''d.'''\n"
        "    return distance / limits.a_min\n"
    )
    findings = lint_source(
        source, module="repro.scenarios.fixture", config=LintConfig()
    )
    assert not [f for f in findings if f.rule_id == "SFL006"]


def test_syntax_error_yields_parse_finding():
    findings = _lint("def broken(:\n")
    assert len(findings) == 1
    assert findings[0].rule_id == "SFL000"
