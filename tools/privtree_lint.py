#!/usr/bin/env python3
"""privtree_lint — project-specific static checks the compilers don't do.

Rules (each has a stable id used in findings and in fixture tests):

  discarded-status   Status/Result discards.  The compiler enforces the
                     class-level [[nodiscard]] on privtree::Status and
                     privtree::Result (-Wunused-result under -Wall), so this
                     rule checks the two things the compiler can't:
                       * the [[nodiscard]] attributes are still present in
                         src/dp/status.h (nobody silently deleted them);
                       * every explicit `(void)` discard of a call carries a
                         `lint-ok: discarded-status` justification comment on
                         the same line or the line above.
  nondeterminism     Nondeterminism primitives (std::random_device, rand(),
                     srand(), std::default_random_engine, chrono/time-seeded
                     engines) outside the RNG module (src/dp/rng.*).  All
                     randomness must flow through privtree::Rng so runs are
                     reproducible from a seed.
  naked-lock         Manual .lock()/.unlock()/.try_lock() calls outside
                     src/core/sync.h.  Lock lifetime must be RAII
                     (privtree::MutexLock) so early returns can't leak a
                     held mutex.
  raw-mutex          std::mutex / std::condition_variable / std::lock_guard /
                     std::unique_lock / std::scoped_lock outside
                     src/core/sync.h.  The annotated wrappers in core/sync.h
                     are the only sanctioned primitives — they carry the
                     clang thread-safety attributes that make -Wthread-safety
                     useful.
  fault-point-name   A PRIVTREE_FAULT(...) site or Injector arming spec names
                     a fault point not listed in
                     tools/lint/registered_fault_points.txt.  Keeps chaos
                     specs (PRIVTREE_FAULTS=...) from silently arming typos.
  metric-name        A Registry::GetCounter/GetGauge/GetHistogram call names
                     a metric not listed in tools/lint/registered_metrics.txt
                     (tests may use names under the `test.` prefix).  Keeps
                     dashboards and the stats-file schema in sync with the
                     code.
  test-only-api      A function or method name declared in a src/**/*.h that
                     no file outside that header and its same-stem .cc
                     mentions in src/, examples/ or servebench/ — an API
                     whose only callers are tests or benches.  Matching is
                     by bare name with comments stripped, so a common name
                     can hide a dead API, but a name that is really used is
                     never flagged.  A name used only inside the body of
                     a function of the same name (overloads that call each
                     other) is not a use.  Hooks that must stay (fault
                     arming, counters only tests read) are listed, one
                     reason each, in tools/lint/test_only_api_allowlist.txt;
                     an entry that no longer matches a finding is itself
                     reported.
                     Whole-tree rule: runs only when no paths are given.

Usage:
  privtree_lint.py [--repo-root DIR] [paths...]

With no paths, lints the default tree (src tests bench examples) under the
repo root.  Exit status 0 = clean, 1 = findings (printed one per line as
`path:line: rule-id: message`), 2 = usage/setup error.

Stdlib only; no third-party dependencies.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

DEFAULT_SCAN_DIRS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = {".cc", ".cpp", ".h", ".hpp"}

# Files exempt from specific rules, as repo-relative posix paths.
SYNC_HEADER = "src/core/sync.h"
RNG_ALLOWLIST = {"src/dp/rng.h", "src/dp/rng.cc"}
# The fault framework's own unit tests arm synthetic points ("a", "b", ...)
# on throwaway Injector instances; those names are local to the test.
FAULT_NAME_ALLOWLIST = {"src/core/fault.h", "src/core/fault.cc",
                        "tests/core/fault_test.cc"}

FAULT_TABLE = "tools/lint/registered_fault_points.txt"
METRIC_TABLE = "tools/lint/registered_metrics.txt"
TEST_ONLY_API_ALLOWLIST = "tools/lint/test_only_api_allowlist.txt"

# Where a reference keeps a src/ API alive; tests/ and bench/ do not count.
PRODUCTION_DIRS = ("src", "examples", "servebench")

JUSTIFY_TAG = "lint-ok: discarded-status"


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def strip_comments(text: str) -> str:
    """Blanks // and /* */ comments, preserving line structure and strings.

    Comment bytes become spaces so line/column arithmetic on the result still
    matches the original file.  String and char literals are preserved (the
    name rules need them) but comment markers inside them are ignored.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(c)
                if nxt:
                    out.append(nxt)
                    i += 2
                    continue
            elif c == quote or c == "\n":
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def load_name_table(repo_root: Path, rel: str) -> set[str] | None:
    path = repo_root / rel
    if not path.is_file():
        return None
    names = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            names.add(line)
    return names


# --- rule: discarded-status -------------------------------------------------

VOID_DISCARD_RE = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_][\w:]*\s*[(.]")


def check_discarded_status(rel: str, raw_lines: list[str],
                           code_lines: list[str]) -> list[Finding]:
    findings = []
    for idx, code in enumerate(code_lines):
        if not VOID_DISCARD_RE.search(code):
            continue
        # gtest death assertions must discard the expression's value; the
        # (void) is part of the idiom, not a swallowed error.
        if "EXPECT_DEATH" in code or "ASSERT_DEATH" in code:
            continue
        justified = JUSTIFY_TAG in raw_lines[idx]
        # Walk up through the contiguous comment block above the discard.
        up = idx - 1
        while not justified and up >= 0 and \
                raw_lines[up].lstrip().startswith("//"):
            justified = JUSTIFY_TAG in raw_lines[up]
            up -= 1
        if not justified:
            findings.append(Finding(
                rel, idx + 1, "discarded-status",
                "explicit (void) discard without a "
                f"'// {JUSTIFY_TAG}' justification comment"))
    return findings


def check_status_nodiscard_attr(repo_root: Path) -> list[Finding]:
    rel = "src/dp/status.h"
    path = repo_root / rel
    if not path.is_file():
        return [Finding(rel, 1, "discarded-status", "src/dp/status.h missing")]
    text = path.read_text(encoding="utf-8")
    findings = []
    for cls in ("Status", "Result"):
        if not re.search(r"class\s+\[\[nodiscard\]\]\s+" + cls, text):
            findings.append(Finding(
                rel, 1, "discarded-status",
                f"class {cls} has lost its [[nodiscard]] attribute"))
    return findings


# --- rule: nondeterminism ---------------------------------------------------

NONDET_TOKENS = [
    (re.compile(r"std\s*::\s*random_device"), "std::random_device"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:])rand\s*\("), "rand()"),
    (re.compile(r"std\s*::\s*default_random_engine"),
     "std::default_random_engine"),
]
ENGINE_TOKEN_RE = re.compile(r"\b(?:mt19937(?:_64)?|minstd_rand0?|ranlux\w+)\b")
CHRONO_SEED_RE = re.compile(
    ENGINE_TOKEN_RE.pattern + r"[^;]*"
    r"(?:chrono|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\))")


def check_nondeterminism(rel: str, code_lines: list[str]) -> list[Finding]:
    if rel in RNG_ALLOWLIST:
        return []
    findings = []
    for idx, code in enumerate(code_lines):
        for pattern, label in NONDET_TOKENS:
            if pattern.search(code):
                findings.append(Finding(
                    rel, idx + 1, "nondeterminism",
                    f"{label} outside the RNG module (src/dp/rng); draw "
                    "randomness from privtree::Rng so runs replay from a "
                    "seed"))
        # The clock-seed check joins the following line so a wrapped
        # constructor argument still matches; the report anchors to the
        # line naming the engine.
        window = code + " " + (code_lines[idx + 1]
                               if idx + 1 < len(code_lines) else "")
        if ENGINE_TOKEN_RE.search(code) and CHRONO_SEED_RE.search(window):
            findings.append(Finding(
                rel, idx + 1, "nondeterminism",
                "random engine seeded from the clock; seeds must come from "
                "configuration or privtree::Rng"))
    return findings


# --- rules: naked-lock / raw-mutex ------------------------------------------

NAKED_LOCK_RE = re.compile(r"[\w)\]>]\s*(?:\.|->)\s*(?:try_)?(?:un)?lock\s*\(")
RAW_MUTEX_RE = re.compile(
    r"std\s*::\s*(mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b")


def check_locks(rel: str, code_lines: list[str]) -> list[Finding]:
    if rel == SYNC_HEADER:
        return []
    findings = []
    for idx, code in enumerate(code_lines):
        if NAKED_LOCK_RE.search(code):
            findings.append(Finding(
                rel, idx + 1, "naked-lock",
                "manual lock()/unlock() call; hold locks via "
                "privtree::MutexLock (RAII) so early returns cannot leak a "
                "held mutex"))
        m = RAW_MUTEX_RE.search(code)
        if m:
            findings.append(Finding(
                rel, idx + 1, "raw-mutex",
                f"std::{m.group(1)} outside core/sync.h; use the annotated "
                "privtree::Mutex / MutexLock / CondVar wrappers so clang "
                "-Wthread-safety can check the locking"))
    return findings


# --- rules: fault-point-name / metric-name ----------------------------------

FAULT_SITE_RES = [
    re.compile(r'PRIVTREE_FAULT\s*\(\s*"([^"]+)"'),
    re.compile(r'\bArm\s*\(\s*\{\s*"([^"]+)"'),
    re.compile(r'\.point\s*=\s*"([^"]+)"'),
    re.compile(r'PointSpec\s*\{\s*"([^"]+)"'),
]
METRIC_SITE_RE = re.compile(r'Get(Counter|Gauge|Histogram)\s*\(\s*"([^"]+)"')


def check_fault_names(rel: str, raw_text: str,
                      table: set[str]) -> list[Finding]:
    # Matched against the whole file so a spec wrapped across lines (the
    # string on the line after `Arm(`) is still seen.
    if rel in FAULT_NAME_ALLOWLIST:
        return []
    findings = []
    for pattern in FAULT_SITE_RES:
        for m in pattern.finditer(raw_text):
            name = m.group(1)
            if name not in table:
                line = raw_text.count("\n", 0, m.start(1)) + 1
                findings.append(Finding(
                    rel, line, "fault-point-name",
                    f'fault point "{name}" is not listed in '
                    f"{FAULT_TABLE}; register it there (with a comment "
                    "saying what it interrupts) or fix the typo"))
    return findings


def check_metric_names(rel: str, raw_text: str,
                       table: set[str]) -> list[Finding]:
    findings = []
    in_tests = rel.startswith("tests/")
    for m in METRIC_SITE_RE.finditer(raw_text):
        name = m.group(2)
        if name in table:
            continue
        if in_tests and name.startswith("test."):
            continue  # Throwaway names on test-local registries.
        line = raw_text.count("\n", 0, m.start(2)) + 1
        findings.append(Finding(
            rel, line, "metric-name",
            f'metric "{name}" is not listed in {METRIC_TABLE}; register '
            "it there or fix the typo (tests may use test.* freely)"))
    return findings


# --- rule: test-only-api ----------------------------------------------------

IDENT_RE = re.compile(r"[A-Za-z_]\w*")
# A name directly followed by its parameter list, preceded by whitespace or
# the tail of a return type (`*`, `&`, `>`, `::`).
DECL_NAME_RE = re.compile(r"(?:^|(?<=[\s*&:>]))(~?[A-Za-z_]\w*)\s*\(")
SCOPE_KEYWORD_RE = re.compile(r"\b(namespace|class|struct|union|enum)\b")
NOT_A_DECL = {
    "alignas", "alignof", "assert", "catch", "co_await", "co_return",
    "decltype", "defined", "delete", "for", "if", "new", "noexcept",
    "operator", "requires", "return", "sizeof", "static_assert", "switch",
    "throw", "typeid", "void", "while",
}


def split_preprocessor(code: str) -> tuple[str, str]:
    """Blanks preprocessor directives (with their continuation lines) out of
    `code`; returns the blanked code and the directives' text."""
    out, directives = [], []
    continued = False
    for line in code.split("\n"):
        if continued or line.lstrip().startswith("#"):
            continued = line.rstrip().endswith("\\")
            out.append("")
            directives.append(line)
        else:
            out.append(line)
    return "\n".join(out), "\n".join(directives)


def statement_decl(stmt: str, class_name: str | None) -> tuple[str, int] | None:
    """The function name a namespace- or class-scope statement declares, and
    its offset in `stmt`; None for data members, aliases, constructors,
    destructors and operators."""
    stmt = stmt.split("=", 1)[0]  # Initializers and default arguments.
    for m in DECL_NAME_RE.finditer(stmt):
        name = m.group(1)
        if name in NOT_A_DECL or name.isupper():  # Keywords, macros.
            continue
        if name.startswith("~") or name == class_name:
            return None
        return name, m.start(1)
    return None


def scan_scopes(code: str) -> tuple[list[tuple[str, int]], set[str]]:
    """Splits comment-stripped C++ into namespace/class-scope statements and
    function (or initializer) bodies.  Returns (name, line) of each function
    or method declared at scope level, and the identifiers the code uses —
    in bodies, signatures, initializers and macros — as opposed to the
    names it declares or defines.  A function body's own name is not a use,
    so overloads that only call each other do not keep each other alive."""
    code, directives = split_preprocessor(code)
    decls = []
    # A macro body that names a function calls it.
    body_idents: set[str] = set(IDENT_RE.findall(directives))
    # (scope, class name) or (body, name of the function it defines).
    stack: list[tuple[str, str | None]] = []
    start = 0
    body_start = 0

    def record(end: int, definition: bool) -> str | None:
        """Records the statement ending at `end`; returns the name of the
        function it declares or defines, if any."""
        stmt = code[start:end]
        class_name = stack[-1][1] if stack else None
        found = statement_decl(stmt, class_name)
        if found:
            name, offset = found
            decls.append((name, code.count("\n", 0, start + offset) + 1))
        # A definition's signature (constructor initializer lists, default
        # arguments) and a member's initializer can call functions too.
        used = stmt if definition else stmt.partition("=")[2]
        body_idents.update(n for n in IDENT_RE.findall(used)
                           if not found or n != found[0])
        return found[0] if found else None

    for i, c in enumerate(code):
        in_body = bool(stack) and stack[-1][0] == "body"
        if c == "{":
            if in_body:
                stack.append(("body", None))
                continue
            stmt = code[start:i]
            kind = SCOPE_KEYWORD_RE.search(stmt)
            if kind and kind.group(1) == "namespace" or 'extern "C"' in stmt:
                stack.append(("scope", None))
            elif kind and kind.group(1) in ("class", "struct", "union") \
                    and "(" not in stmt.split(kind.group(1), 1)[0]:
                head = re.sub(r"\([^)]*\)", " ", stmt[kind.end():])
                head = head.split(":", 1)[0]
                names = [n for n in IDENT_RE.findall(head)
                         if n != "final" and not n.isupper()]
                stack.append(("scope", names[-1] if names else None))
            else:  # A function body, a brace initializer or an enum.
                defined = None
                if not (kind and kind.group(1) == "enum"):
                    defined = record(i, definition=True)
                # A body remembers the function it defines: the overloads
                # of one name calling each other are not a use of it.
                stack.append(("body", defined))
                body_start = i + 1
            start = i + 1
        elif c == "}":
            if stack:
                if stack[-1][0] == "body" and \
                        (len(stack) == 1 or stack[-2][0] == "scope"):
                    body_idents.update(
                        n for n in IDENT_RE.findall(code[body_start:i])
                        if n != stack[-1][1])
                stack.pop()
            start = i + 1
        elif c == ";" and not in_body:
            record(i, definition=False)
            start = i + 1
    return decls, body_idents


def source_files(root: Path) -> list[Path]:
    return [p for p in sorted(root.rglob("*"))
            if p.suffix in SOURCE_SUFFIXES and p.is_file()]


def load_allowlist(repo_root: Path,
                   rel: str) -> tuple[dict[str, int], list[Finding]]:
    """Allowlisted names with their line numbers; an entry without a
    `# reason` is a finding."""
    path = repo_root / rel
    names, findings = {}, []
    if not path.is_file():
        return names, findings
    for idx, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        name, _, reason = line.partition("#")
        name = name.strip()
        if not name:
            continue
        names[name] = idx
        if not reason.strip():
            findings.append(Finding(rel, idx, "test-only-api",
                                    f'allowlist entry "{name}" gives no '
                                    "reason"))
    return names, findings


def check_test_only_api(repo_root: Path,
                        allowlist_rel: str = TEST_ONLY_API_ALLOWLIST
                        ) -> list[Finding]:
    """Flags the functions a src/ header declares that no production file
    uses.  A use is a name inside a function body, a signature or an
    initializer, or a macro body; declaring or defining a function of that
    name is not, so the header and its .cc count only where they call it."""
    uses: dict[str, set[str]] = {}
    decls: dict[str, list[tuple[str, int]]] = {}
    for top in PRODUCTION_DIRS:
        if not (repo_root / top).is_dir():
            continue
        for path in source_files(repo_root / top):
            rel = path.relative_to(repo_root).as_posix()
            found, used = scan_scopes(strip_comments(
                path.read_text(encoding="utf-8", errors="replace")))
            uses[rel] = used
            if rel.startswith("src/") and rel.endswith(".h"):
                decls[rel] = found

    allowlist, findings = load_allowlist(repo_root, allowlist_rel)
    matched = set()
    for rel, found in sorted(decls.items()):
        reported = set()
        for name, line in found:
            if name in reported or any(name in used
                                       for used in uses.values()):
                continue
            reported.add(name)
            # An entry names one API, or a header whose every declaration
            # serves tests or benches by design.
            entry = name if name in allowlist else rel
            if entry in allowlist:
                matched.add(entry)
                continue
            findings.append(Finding(
                rel, line, "test-only-api",
                f"{name}() has no caller in src/, examples/ or servebench/ "
                "(tests and benches do not count); delete it, move it into the test "
                f"that needs it, or list it with a reason in {allowlist_rel}"))
    for entry, line in allowlist.items():
        if entry not in matched:
            findings.append(Finding(
                allowlist_rel, line, "test-only-api",
                f'allowlist entry "{entry}" matches no test-only API; '
                "remove it"))
    return findings


# --- driver -----------------------------------------------------------------

def lint_file(repo_root: Path, path: Path, fault_table: set[str],
              metric_table: set[str]) -> list[Finding]:
    rel = path.relative_to(repo_root).as_posix()
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return [Finding(rel, 1, "io", f"unreadable: {err}")]
    raw_lines = text.splitlines()
    code_lines = strip_comments(text).splitlines()
    # splitlines() on the stripped text can only differ if stripping ate a
    # newline, which strip_comments never does.
    findings = []
    findings += check_discarded_status(rel, raw_lines, code_lines)
    findings += check_nondeterminism(rel, code_lines)
    findings += check_locks(rel, code_lines)
    findings += check_fault_names(rel, text, fault_table)
    findings += check_metric_names(rel, text, metric_table)
    return findings


def collect_files(repo_root: Path, args_paths: list[str]) -> list[Path]:
    roots = [repo_root / p for p in args_paths] if args_paths else [
        repo_root / d for d in DEFAULT_SCAN_DIRS]
    # The intentionally-broken fixtures are skipped by directory scans but
    # lintable when named explicitly (that's how their selftest runs them).
    fixtures = (repo_root / "tools" / "lint" / "fixtures").resolve()
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(p for p in sorted(root.rglob("*"))
                         if p.suffix in SOURCE_SUFFIXES and p.is_file()
                         and fixtures not in p.resolve().parents)
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo-root", default=None,
                        help="repository root (default: two levels above "
                             "this script)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint, relative to the "
                             "repo root (default: src tests bench examples)")
    args = parser.parse_args(argv)

    repo_root = Path(args.repo_root).resolve() if args.repo_root else \
        Path(__file__).resolve().parent.parent
    fault_table = load_name_table(repo_root, FAULT_TABLE)
    metric_table = load_name_table(repo_root, METRIC_TABLE)
    if fault_table is None or metric_table is None:
        print(f"privtree_lint: missing name table under {repo_root} "
              f"({FAULT_TABLE}, {METRIC_TABLE})", file=sys.stderr)
        return 2

    findings = list(check_status_nodiscard_attr(repo_root))
    if not args.paths:
        findings.extend(check_test_only_api(repo_root))
    for path in collect_files(repo_root, args.paths):
        findings.extend(lint_file(repo_root, path, fault_table, metric_table))

    for finding in findings:
        print(finding)
    if findings:
        print(f"privtree_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
