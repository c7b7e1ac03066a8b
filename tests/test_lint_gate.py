"""The local lint gate: ``src/`` must be safelint-clean.

This mirrors the CI step ``python -m repro.lint src`` so a violation
fails the ordinary test run too, not just CI.  Policy (docs/LINTING.md):
fix real findings; suppress true false-positives inline with a
justification; the baseline stays empty unless a large adoption wave
needs grandfathering.
"""

from pathlib import Path

from repro.lint import (
    Baseline,
    LintConfig,
    lint_paths,
    load_baseline,
    load_project_config,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PYPROJECT = REPO_ROOT / "pyproject.toml"


def _gate_result():
    config = (
        load_project_config(PYPROJECT) if PYPROJECT.is_file() else LintConfig()
    )
    baseline = (
        load_baseline(config.baseline)
        if config.baseline is not None
        else Baseline()
    )
    return lint_paths([SRC], config, baseline=baseline)


def test_src_tree_is_lint_clean():
    result = _gate_result()
    assert result.files_checked > 50, "gate ran over too few files"
    assert result.ok, "safelint findings in src/:\n" + "\n".join(
        f.format_text() for f in result.findings
    )


def test_shape_pass_is_clean_with_zero_suppressions():
    # The safeshape acceptance bar is stricter than the general gate:
    # the SFL200-series must hold on src/ without inline suppressions
    # or baseline entries — a suppressed shape finding is a blind spot
    # exactly where the vectorized-batch migration needs certainty.
    from dataclasses import replace

    config = (
        load_project_config(PYPROJECT) if PYPROJECT.is_file() else LintConfig()
    )
    config = replace(config, select=frozenset({"SFL2"}), baseline=None)
    result = lint_paths([SRC], config)
    assert result.findings == [], "shape findings in src/:\n" + "\n".join(
        f.format_text() for f in result.findings
    )
    assert result.suppressed == 0, "shape findings must not be suppressed"
    assert result.baselined == 0, "shape findings must not be baselined"


def test_gate_exercises_every_rule_scope():
    # A gate that silently skipped scoped rules would pass vacuously;
    # assert the scoped packages exist so every rule really ran.
    config = (
        load_project_config(PYPROJECT) if PYPROJECT.is_file() else LintConfig()
    )
    scopes = ("critical", "sim", "math", "planner", "units", "dim", "shape")
    for scope in scopes:
        for prefix in config.packages_for(scope):
            package_dir = SRC / Path(*prefix.split("."))
            assert package_dir.is_dir(), (
                f"scope {scope!r} names missing package {prefix}"
            )


def test_every_baseline_entry_is_live(monkeypatch):
    # A stale fingerprint (its line fixed or rewritten) would silently
    # grandfather any future line with the same path, rule and text, so
    # every entry must still match a finding in the file it names.
    from dataclasses import replace

    config = (
        load_project_config(PYPROJECT) if PYPROJECT.is_file() else LintConfig()
    )
    assert config.baseline is not None, "pyproject.toml names no lint baseline"
    entries = load_baseline(config.baseline).entries
    # Fingerprints hash the path as written in the baseline: lint the
    # named files by those repo-relative paths, with no baseline.
    monkeypatch.chdir(REPO_ROOT)
    paths = sorted({meta["path"] for meta in entries.values()})
    result = lint_paths(
        [Path(path) for path in paths], replace(config, baseline=None)
    )
    live = {finding.fingerprint for finding in result.findings}
    stale = sorted(
        f"{meta['path']}:{meta['line']} {meta['rule']} ({fingerprint})"
        for fingerprint, meta in entries.items()
        if fingerprint not in live
    )
    assert not stale, (
        f"{len(stale)} baseline entries match no current finding; remove "
        "them from the baseline file:\n" + "\n".join(stale)
    )
