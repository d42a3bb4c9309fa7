"""The devtools checker: golden fixtures, suppression, CLI, self-check.

Each ``tests/devtools_fixtures/rprXXX_case.py`` snippet deliberately
violates one rule; the line set the rule reports must match the fixture's
``# EXPECT`` markers exactly.  The self-check asserts the real tree
(``src``, ``tests``, ``benchmarks``) is clean at HEAD — the same
invocation CI runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import FileContext, Finding, all_rules, get_rule, is_suppressed
from repro.devtools.check import (
    DEFAULT_EXCLUDE_DIRS,
    check_file,
    check_paths,
    iter_python_files,
    main,
)

FIXTURES = Path(__file__).parent / "devtools_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]


def expected_lines(path: Path) -> list[int]:
    """1-based numbers of fixture lines carrying an ``# EXPECT`` marker."""
    return [
        lineno
        for lineno, text in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if "EXPECT" in text
    ]


def rule_lines(path: Path, rule_id: str) -> list[int]:
    """Unsuppressed finding lines of one rule over one fixture file."""
    findings = check_file(path, [get_rule(rule_id)], respect_scope=False)
    assert all(f.rule == rule_id for f in findings)
    return [f.line for f in findings]


# ----------------------------------------------------------------------
# Golden fixtures, one per rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rule_id",
    ["RPR001", "RPR002", "RPR004", "RPR006", "RPR007", "RPR008"],
)
def test_rule_fires_exactly_on_expect_markers(rule_id):
    fixture = FIXTURES / f"rpr{rule_id[3:]}_case.py"
    assert rule_lines(fixture, rule_id) == expected_lines(fixture)


def test_rpr005_fires_exactly_on_expect_markers():
    # RPR005 exempts non-package files inside check(), so the fixture is
    # parsed under a synthetic src/repro path.
    fixture = FIXTURES / "rpr005_case.py"
    source = fixture.read_text(encoding="utf-8")
    ctx = FileContext.from_source("src/repro/_rpr005_case.py", source)
    assert ctx.module == "repro._rpr005_case"
    rule = get_rule("RPR005")
    lines = sorted(
        f.line for f in rule.check(ctx) if not is_suppressed(f, ctx.noqa)
    )
    assert lines == expected_lines(fixture)


def test_rpr002_exempts_the_registry_module():
    rule = get_rule("RPR002")
    source = 'ENGINES = ("scalar", "vectorized", "bitpacked")\n'
    exempt = FileContext.from_source("src/repro/_registry.py", source)
    assert list(rule.check(exempt)) == []
    plain = FileContext.from_source("src/repro/other.py", source)
    assert len(list(rule.check(plain))) == 1


def test_rpr007_exempts_the_observe_package():
    rule = get_rule("RPR007")
    source = "import time\n\nstart = time.perf_counter()\n"
    for exempt_path in (
        "src/repro/observe/spans.py",
        "src/repro/observe/__init__.py",
    ):
        exempt = FileContext.from_source(exempt_path, source)
        assert list(rule.check(exempt)) == []
    plain = FileContext.from_source("src/repro/api/session.py", source)
    assert len(list(rule.check(plain))) == 1


def test_rpr008_applies_only_under_repro_serve():
    rule = get_rule("RPR008")
    source = "import time\n\nasync def f():\n    time.sleep(1)\n"
    served = FileContext.from_source("src/repro/serve/service.py", source)
    assert rule.applies(served)
    assert len(list(rule.check(served))) == 1
    # Event-loop discipline is a serve concern: the same code elsewhere
    # in src (or in tests) is out of scope.
    library = FileContext.from_source("src/repro/api/session.py", source)
    assert not rule.applies(library)
    test_file = FileContext.from_source("tests/test_serve.py", source)
    assert not rule.applies(test_file)


def test_rpr006_exempts_the_cache_restore_module():
    rule = get_rule("RPR006")
    source = "states = PrefixStates.build(network, packed)\n"
    exempt = FileContext.from_source("src/repro/cache/restore.py", source)
    assert list(rule.check(exempt)) == []
    plain = FileContext.from_source("src/repro/faults/other.py", source)
    assert len(list(rule.check(plain))) == 1


# ----------------------------------------------------------------------
# Suppression semantics
# ----------------------------------------------------------------------
def test_blanket_noqa_suppresses_every_rule(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(
        "import numpy as np\n"
        "from repro.core.scratch import allocation_free\n"
        "@allocation_free\n"
        "def f(a):\n"
        "    return np.zeros(a.shape)  # repro: noqa\n",
        encoding="utf-8",
    )
    assert check_file(path, [get_rule("RPR001")], respect_scope=False) == []


def test_noqa_with_other_code_does_not_suppress(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(
        "import numpy as np\n"
        "from repro.core.scratch import allocation_free\n"
        "@allocation_free\n"
        "def f(a):\n"
        "    return np.zeros(a.shape)  # repro: noqa RPR999\n",
        encoding="utf-8",
    )
    findings = check_file(path, [get_rule("RPR001")], respect_scope=False)
    assert [f.rule for f in findings] == ["RPR001"]


def test_is_suppressed_requires_matching_line():
    finding = Finding(rule="RPR001", path="x.py", line=3, col=0, message="m")
    assert not is_suppressed(finding, {})
    assert not is_suppressed(finding, {2: None})
    assert is_suppressed(finding, {3: None})
    assert is_suppressed(finding, {3: frozenset({"RPR001"})})
    assert not is_suppressed(finding, {3: frozenset({"RPR002"})})


# ----------------------------------------------------------------------
# Scoping and file walking
# ----------------------------------------------------------------------
def test_src_scoped_rules_skip_test_files():
    # The same engine tuple that fires under src/ is legal in tests.
    fixture = FIXTURES / "rpr002_case.py"
    assert check_file(fixture, [get_rule("RPR002")], respect_scope=True) == []


def test_walk_skips_fixture_directory():
    assert "devtools_fixtures" in DEFAULT_EXCLUDE_DIRS
    walked = list(iter_python_files([str(FIXTURES.parent)]))
    assert walked, "tests/ walk found no python files"
    assert not any("devtools_fixtures" in str(p) for p in walked)
    # Explicitly named files bypass the exclusion.
    direct = list(iter_python_files([str(FIXTURES / "rpr001_case.py")]))
    assert len(direct) == 1


def test_parse_error_becomes_rpr000(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n", encoding="utf-8")
    findings = check_file(path)
    assert [f.rule for f in findings] == ["RPR000"]
    assert "could not parse" in findings[0].message


# ----------------------------------------------------------------------
# Self-check: the real tree is clean (the invocation CI runs)
# ----------------------------------------------------------------------
def test_head_is_clean():
    findings = check_paths(
        [
            str(REPO_ROOT / "src" / "repro"),
            str(REPO_ROOT / "tests"),
            str(REPO_ROOT / "benchmarks"),
        ]
    )
    assert findings == [], "\n".join(f.format_human() for f in findings)


def test_every_rule_is_registered():
    assert [r.id for r in all_rules()] == [
        "RPR001",
        "RPR002",
        "RPR004",
        "RPR005",
        "RPR006",
        "RPR007",
        "RPR008",
    ]


# ----------------------------------------------------------------------
# CLI behaviour
# ----------------------------------------------------------------------
def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPR001", "RPR005"):
        assert rule_id in out


def test_cli_reports_fixture_findings_as_json(capsys):
    # RPR001 has scope "all", so the CLI flags the fixture when it is
    # named explicitly (bypassing the directory exclusion).
    code = main(
        [str(FIXTURES / "rpr001_case.py"), "--select", "RPR001",
         "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["line"] for f in payload] == expected_lines(
        FIXTURES / "rpr001_case.py"
    )
    assert all(f["rule"] == "RPR001" for f in payload)


def test_cli_clean_run_exits_zero(capsys):
    assert main([str(REPO_ROOT / "src" / "repro" / "devtools")]) == 0
    assert capsys.readouterr().out == ""


def test_cli_unknown_rule_exits_two(capsys):
    assert main(["--select", "RPR999", str(FIXTURES)]) == 2
    assert "unknown rule id" in capsys.readouterr().err
