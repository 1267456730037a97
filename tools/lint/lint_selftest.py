#!/usr/bin/env python3
"""Fixture tests for tools/privtree_lint.py, run under ctest.

Each bad_* fixture must produce exactly the expected findings for its rule
(and nothing else); clean.cc must produce none.  Runs the linter in-process
by importing it, so the test exercises exactly the shipped module.
"""

from __future__ import annotations

import sys
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = TOOLS_DIR.parent
sys.path.insert(0, str(TOOLS_DIR))

import privtree_lint  # noqa: E402


def lint(fixture: str):
    path = REPO_ROOT / "tools" / "lint" / "fixtures" / fixture
    fault_table = privtree_lint.load_name_table(
        REPO_ROOT, privtree_lint.FAULT_TABLE)
    metric_table = privtree_lint.load_name_table(
        REPO_ROOT, privtree_lint.METRIC_TABLE)
    assert fault_table and metric_table, "name tables missing or empty"
    return privtree_lint.lint_file(REPO_ROOT, path, fault_table, metric_table)


failures = []


def expect(fixture: str, rule: str, want_lines: list[int]) -> None:
    """Asserts `fixture` yields findings of `rule` exactly at `want_lines`."""
    findings = lint(fixture)
    got = sorted(f.line for f in findings if f.rule == rule)
    other = [f for f in findings if f.rule != rule]
    if got != sorted(want_lines):
        failures.append(f"{fixture}: {rule} at lines {got}, "
                        f"want {sorted(want_lines)}")
    if other:
        failures.append(f"{fixture}: unexpected extra findings: "
                        + "; ".join(str(f) for f in other))


def expect_counts(fixture: str, rule: str, want: int) -> None:
    findings = lint(fixture)
    got = sum(1 for f in findings if f.rule == rule)
    if got != want:
        failures.append(f"{fixture}: {got} {rule} finding(s), want {want}: "
                        + "; ".join(str(f) for f in findings))


# One positive fixture per rule: the violation lines are load-bearing — renumber
# here when editing a fixture.
expect("bad_discarded_status.cc", "discarded-status", [10])
expect("bad_nondeterminism.cc", "nondeterminism", [10, 15, 16, 20, 25])
expect("bad_naked_lock.cc", "naked-lock", [18, 19])
expect("bad_raw_mutex.cc", "raw-mutex", [12, 13, 17, 21])
expect("bad_fault_point_name.cc", "fault-point-name", [11, 19])
expect("bad_metric_name.cc", "metric-name", [9, 10, 11])

# test-only-api runs over a whole tree: in the mini tree, the API only the
# test and the bench call is flagged, and so are two overloads whose only
# production callers are each other; the one an example calls, and the
# helper its own .cc calls, are not.
mini_tree = REPO_ROOT / "tools" / "lint" / "fixtures" / "test_only_api"
got = [(f.path, f.line, f.message.split("(")[0])
       for f in privtree_lint.check_test_only_api(mini_tree)]
want = [("src/widget.h", 14, "OnlyTestsCallThis"),
        ("src/widget.h", 19, "Twin")]
if got != want:
    failures.append(f"test_only_api: findings {got}, want exactly {want}")

# Negative control: the clean fixture must not trip anything.
clean = lint("clean.cc")
if clean:
    failures.append("clean.cc: unexpected findings: "
                    + "; ".join(str(f) for f in clean))

# The guard on status.h's [[nodiscard]] attributes must hold on the real tree.
attr = privtree_lint.check_status_nodiscard_attr(REPO_ROOT)
if attr:
    failures.append("status.h attribute check: "
                    + "; ".join(str(f) for f in attr))

if failures:
    print("lint_selftest: FAIL", file=sys.stderr)
    for failure in failures:
        print("  " + failure, file=sys.stderr)
    sys.exit(1)
print("lint_selftest: PASS (7 rule fixtures + clean control)")
