#!/usr/bin/env python3
"""Determinism lint: machine-check the bit-identical-digest contract.

Every headline result in this repo (BENCH_shard/routing/chaos/...) rests
on one invariant: aggregate digests are bit-identical across --jobs and
--shards. This linter turns the conventions that protect it into rules
that fail CI:

  wall-clock            No std::chrono::{system,steady,high_resolution}_clock,
                        time()/clock()/gettimeofday/clock_gettime, rand()/
                        srand()/random_device outside src/qbase/rng. Sim code
                        reads Simulator::now(); randomness comes from seeded
                        qnetp::Rng streams.
  unordered-iter        No range-for or begin()/end() iteration over
                        std::unordered_map/unordered_set. Iterate via
                        qbase::ordered_keys()/drain_sorted()/for_each_sorted()
                        instead, or annotate a provably order-independent
                        loop (see below).
  pointer-key           No pointer-keyed std::map/std::set (and no sort
                        comparators ordering raw pointers): addresses vary
                        run to run, so pointer order is never deterministic.
  unordered-accumulate  No std::reduce/std::transform_reduce/std::execution
                        policies (unspecified evaluation order changes
                        floating-point results), and no std::accumulate
                        directly over an unordered container's range.

Escape hatch: a loop whose effect is provably order-independent (pure
counting, exact min/max reduction, erase-only sweep) may carry
    // qnetp-lint: <rule>-ok(<reason>)
on the same line or within the three lines above; the reason is
mandatory. File-level exemptions live in ALLOWLIST below.

The rules match tokens, not an AST: comments and string literals are
blanked first, and unordered-container names are collected across each
file's include closure. The linter needs nothing beyond python3.

Usage:
  scripts/determinism_lint.py                 # lint src/ (default)
  scripts/determinism_lint.py path...         # lint specific files/dirs
  scripts/determinism_lint.py --self-test     # run the tests/lint fixtures

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Files exempt from a rule wholesale. Keep this list short and commented:
# every entry is a hole in the wall.
ALLOWLIST = {
    # The deterministic-iteration helpers themselves: they iterate the
    # hash container once and sort before anything escapes.
    "src/qbase/ordered.hpp": {"unordered-iter"},
}

# Calls through which iterating an unordered container is the sanctioned
# deterministic pattern.
SANCTIONED_CALLS = ("ordered_keys", "drain_sorted", "for_each_sorted")

SOURCE_EXTS = (".cpp", ".hpp", ".h", ".cc", ".cxx")

ANNOTATION_RE = re.compile(r"qnetp-lint:\s*([\w-]+)-ok\(([^)]*)\)")
EXPECT_RE = re.compile(r"lint-expect:\s*([\w-]+)")


@dataclass
class Finding:
    path: str  # repo-relative
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    path: str  # repo-relative, '/'-separated
    raw_lines: list[str]
    code_lines: list[str]  # comments and string literals blanked
    annotations: dict[int, list[tuple[str, str]]]  # line -> [(rule, reason)]
    includes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Source loading: blank comments/strings but preserve line structure, and
# harvest `qnetp-lint:` annotations from the comments while doing so.
# ---------------------------------------------------------------------------

def load_source(abs_path: str, rel_path: str) -> SourceFile:
    with open(abs_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines()

    annotations: dict[int, list[tuple[str, str]]] = {}

    code = []
    i = 0
    n = len(text)
    line = 1
    state = "code"  # code | line_comment | block_comment | string | char
    comment_start = 0
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                comment_start = i
                code.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                comment_start = i
                code.append("  ")
                i += 2
                continue
            if ch == '"':
                # Raw strings: skip to the matching delimiter.
                if code and code[-1] == "R":
                    m = re.match(r'R"([^(\s]*)\(', text[i - 1 : i + 40])
                    if m:
                        terminator = ")" + m.group(1) + '"'
                        end = text.find(terminator, i)
                        end = n if end == -1 else end + len(terminator)
                        while i < end:
                            code.append("\n" if text[i] == "\n" else " ")
                            if text[i] == "\n":
                                line += 1
                            i += 1
                        continue
                state = "string"
                code.append('"')
                i += 1
                continue
            if ch == "'":
                state = "char"
                code.append("'")
                i += 1
                continue
            code.append(ch)
            if ch == "\n":
                line += 1
            i += 1
        elif state in ("line_comment", "block_comment"):
            closing = ch == "\n" if state == "line_comment" else (
                ch == "*" and nxt == "/")
            if closing:
                comment_text = text[comment_start:i]
                for m in ANNOTATION_RE.finditer(comment_text):
                    annotations.setdefault(line, []).append(
                        (m.group(1), m.group(2).strip()))
                if state == "line_comment":
                    code.append("\n")
                    line += 1
                    i += 1
                else:
                    code.append("  ")
                    i += 2
                state = "code"
            else:
                if ch == "\n":
                    # Multi-line block comment: credit the annotation to the
                    # line the comment started on is wrong; annotations bind
                    # to the line they appear on.
                    for m in ANNOTATION_RE.finditer(text[comment_start:i]):
                        annotations.setdefault(line, []).append(
                            (m.group(1), m.group(2).strip()))
                    comment_start = i + 1
                    code.append("\n")
                    line += 1
                else:
                    code.append(" ")
                i += 1
        elif state == "string":
            if ch == "\\":
                code.append("  ")
                i += 2
            elif ch == '"':
                code.append('"')
                state = "code"
                i += 1
            else:
                code.append("\n" if ch == "\n" else " ")
                if ch == "\n":
                    line += 1
                i += 1
        elif state == "char":
            if ch == "\\":
                code.append("  ")
                i += 2
            elif ch == "'":
                code.append("'")
                state = "code"
                i += 1
            else:
                code.append(" ")
                i += 1
    # Trailing line comment without newline.
    if state in ("line_comment", "block_comment"):
        for m in ANNOTATION_RE.finditer(text[comment_start:]):
            annotations.setdefault(line, []).append(
                (m.group(1), m.group(2).strip()))

    code_text = "".join(code)
    code_lines = code_text.splitlines()
    # Pad: blanking must never change the line count.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")

    src = SourceFile(path=rel_path, raw_lines=raw_lines,
                     code_lines=code_lines, annotations=annotations)
    # Includes come from the raw text: the blanking pass erases string
    # literal contents, and the include path IS a string literal.
    for m in re.finditer(r'^\s*#\s*include\s*"([^"]+)"', text, re.M):
        src.includes.append(m.group(1))
    return src


# The annotation vocabulary: `// qnetp-lint: unordered-ok(reason)` is the
# documented escape hatch for the iteration rule (DESIGN.md sec. 9); each
# rule also accepts its own id spelled out.
ANNOTATION_KEYS = {
    "unordered-iter": ("unordered", "unordered-iter"),
    "wall-clock": ("wall-clock",),
    "pointer-key": ("pointer-key",),
    "unordered-accumulate": ("unordered-accumulate",),
}


def is_annotated(src: SourceFile, line: int, rule: str) -> bool:
    """Annotation on the same line or within the three lines above."""
    keys = ANNOTATION_KEYS.get(rule, (rule,))
    for ln in range(max(1, line - 3), line + 1):
        for rule_name, reason in src.annotations.get(ln, []):
            if rule_name in keys and reason:
                return True
    return False


def allowlisted(path: str, rule: str) -> bool:
    return rule in ALLOWLIST.get(path, set())


# ---------------------------------------------------------------------------
# Unordered-name resolution: which identifiers in this translation unit
# denote unordered containers? Declarations are collected per file, then
# merged over the quoted-include closure.
# ---------------------------------------------------------------------------

IDENT = r"[A-Za-z_]\w*"


def _balance_angles(text: str, start: int) -> int:
    """`start` indexes the '<' after unordered_xxx; return index past the
    matching '>' or -1."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":  # malformed / operator<: bail
            return -1
        i += 1
    return -1


def unordered_decls(src: SourceFile) -> tuple[set[str], set[str]]:
    """Return (variable/member/param names, type-alias names) declared as
    unordered containers in this file."""
    text = "\n".join(src.code_lines)
    names: set[str] = set()
    aliases: set[str] = set()
    for m in re.finditer(r"\bunordered_(?:map|set|multimap|multiset)\s*<",
                         text):
        open_idx = m.end() - 1
        close = _balance_angles(text, open_idx)
        if close == -1:
            continue
        # `using X = std::unordered_map<...>;` / `typedef ... X;`
        prefix = text[max(0, m.start() - 160):m.start()]
        um = re.search(r"\busing\s+(" + IDENT + r")\s*=\s*[\w:]*$", prefix)
        if um:
            aliases.add(um.group(1))
            continue
        tail = text[close:close + 160]
        if re.match(r"^\s*::", tail):  # unordered_map<...>::iterator etc.
            continue
        dm = re.match(
            r"^\s*(?:const\b\s*)?[&*]*\s*(" + IDENT + r")\s*[;,=({\[)]", tail)
        if dm:
            name = dm.group(1)
            if name not in ("const", "final", "override"):
                names.add(name)
        tm = re.match(r"^\s*(" + IDENT + r")\s*;", tail)  # typedef tail
        if "typedef" in prefix.split()[-3:] if prefix.split() else False:
            if tm:
                aliases.add(tm.group(1))
    # Declarations through aliases found in the same file.
    for alias in aliases:
        for dm in re.finditer(
                r"\b" + re.escape(alias) +
                r"\s*(?:const\b\s*)?[&*]*\s*(" + IDENT + r")\s*[;,=({]",
                text):
            names.add(dm.group(1))
    return names, aliases


def include_closure(src: SourceFile,
                    by_path: dict[str, SourceFile]) -> list[SourceFile]:
    """This file plus every repo header reachable via quoted includes."""
    seen = {src.path}
    queue = [src]
    out = [src]
    while queue:
        cur = queue.pop()
        for inc in cur.includes:
            for cand in (inc, "src/" + inc,
                         os.path.dirname(cur.path) + "/" + inc):
                cand = os.path.normpath(cand).replace(os.sep, "/")
                if cand in by_path and cand not in seen:
                    seen.add(cand)
                    queue.append(by_path[cand])
                    out.append(by_path[cand])
                    break
    return out


# ---------------------------------------------------------------------------
# Rule implementations.
# ---------------------------------------------------------------------------

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bchrono\s*::\s*(?:system_clock|steady_clock|"
                r"high_resolution_clock)\b"),
     "wall-clock time source; simulation code must use Simulator::now()"),
    (re.compile(r"\bstd\s*::\s*time\b|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time() reads the wall clock"),
    (re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\(\s*\)|\bsrand\s*\("),
     "rand()/srand() is a hidden global RNG; use a seeded qnetp::Rng stream"),
    (re.compile(r"\brandom_device\b"),
     "random_device is nondeterministic; derive seeds via "
     "qnetp::derive_stream_seed"),
    (re.compile(r"\bclock\s*\(\s*\)|\bgettimeofday\s*\(|\bclock_gettime\s*\("),
     "process-clock read; simulation code must use Simulator::now()"),
]


def check_wall_clock(src: SourceFile) -> list[Finding]:
    if src.path.startswith("src/qbase/rng"):
        return []  # the one sanctioned home for entropy plumbing
    out = []
    for ln, code in enumerate(src.code_lines, start=1):
        for pat, msg in WALL_CLOCK_PATTERNS:
            if pat.search(code):
                if is_annotated(src, ln, "wall-clock") or \
                        allowlisted(src.path, "wall-clock"):
                    continue
                out.append(Finding(src.path, ln, "wall-clock", msg))
    return out


def _expr_mentions(expr: str, names: set[str]) -> str | None:
    for m in re.finditer(IDENT, expr):
        if m.group(0) not in names:
            continue
        # `m.at(k)` / `m[k]` yield the mapped value, not the container:
        # iterating the result is not iterating the hash table.
        tail = expr[m.end():]
        if re.match(r"\s*(?:\.|->)\s*at\s*\(", tail) or \
                re.match(r"\s*\[", tail):
            continue
        return m.group(0)
    return None


def check_unordered_iter(src: SourceFile, names: set[str]) -> list[Finding]:
    out = []
    text = "\n".join(src.code_lines)

    def line_of(pos: int) -> int:
        return text.count("\n", 0, pos) + 1

    # Range-for: for ( decl : range-expr )
    for m in re.finditer(r"\bfor\s*\(", text):
        open_idx = m.end() - 1
        depth = 0
        i = open_idx
        colon = -1
        while i < len(text):
            c = text[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    break
            elif c == ":" and depth == 1 and text[i - 1] != ":" and \
                    (i + 1 >= len(text) or text[i + 1] != ":"):
                if colon == -1:
                    colon = i
            i += 1
        if colon == -1 or i >= len(text):
            continue  # classic for or unterminated
        range_expr = text[colon + 1:i]
        if any(fn in range_expr for fn in SANCTIONED_CALLS):
            continue
        hit = _expr_mentions(range_expr, names)
        if hit is None and re.search(
                r"\bunordered_(?:map|set|multimap|multiset)\s*<", range_expr):
            hit = "a temporary unordered container"
        if hit is None:
            continue
        ln = line_of(m.start())
        if is_annotated(src, ln, "unordered-iter") or \
                allowlisted(src.path, "unordered-iter"):
            continue
        out.append(Finding(
            src.path, ln, "unordered-iter",
            f"range-for over unordered container '{hit}': hash order is not "
            "deterministic — use qbase::ordered_keys()/for_each_sorted()/"
            "drain_sorted(), or annotate "
            "// qnetp-lint: unordered-ok(<reason>)"))

    # Iterator loops / algorithms over X.begin(). (`X.end()` alone is a
    # point-lookup sentinel — `it != X.end()` — not an iteration start.)
    for m in re.finditer(
            r"\b(" + IDENT + r")\s*(?:\.|->)\s*c?r?begin\s*\(", text):
        if m.group(1) not in names:
            continue
        # An accumulate over this range is the unordered-accumulate
        # rule's finding; don't double-report it here.
        if re.search(r"\baccumulate\s*\(\s*$", text[:m.start()]):
            continue
        ln = line_of(m.start())
        if is_annotated(src, ln, "unordered-iter") or \
                allowlisted(src.path, "unordered-iter"):
            continue
        out.append(Finding(
            src.path, ln, "unordered-iter",
            f"iterator walk over unordered container '{m.group(1)}': hash "
            "order is not deterministic — use the qbase ordered helpers or "
            "annotate // qnetp-lint: unordered-ok(<reason>)"))
    return out


POINTER_KEY_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:multi)?(?:map|set)\s*<\s*"
    r"(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*(?:const\s*)?\*")
POINTER_LESS_RE = re.compile(r"\bstd\s*::\s*less\s*<\s*[^>]*\*")
POINTER_CMP_LAMBDA_RE = re.compile(
    r"\[[^\]]*\]\s*\(\s*(?:const\s+)?[\w:]+\s*\*\s*(?:const\s+)?(\w+)\s*,\s*"
    r"(?:const\s+)?[\w:]+\s*\*\s*(?:const\s+)?(\w+)\s*\)\s*"
    r"(?:->\s*\w+\s*)?\{[^{}]*\breturn\s+(\w+)\s*[<>]=?\s*(\w+)")


def check_pointer_key(src: SourceFile) -> list[Finding]:
    out = []
    for ln, code in enumerate(src.code_lines, start=1):
        if allowlisted(src.path, "pointer-key") or \
                is_annotated(src, ln, "pointer-key"):
            continue
        if POINTER_KEY_RE.search(code) or POINTER_LESS_RE.search(code):
            out.append(Finding(
                src.path, ln, "pointer-key",
                "pointer-keyed ordered container: iteration order follows "
                "allocation addresses, which vary run to run — key by a "
                "stable id instead"))
    text = "\n".join(src.code_lines)
    for m in POINTER_CMP_LAMBDA_RE.finditer(text):
        a, b, x, y = m.groups()
        if {x, y} <= {a, b}:
            ln = text.count("\n", 0, m.start()) + 1
            if allowlisted(src.path, "pointer-key") or \
                    is_annotated(src, ln, "pointer-key"):
                continue
            out.append(Finding(
                src.path, ln, "pointer-key",
                "comparator orders raw pointers: addresses vary run to run — "
                "compare a stable id instead"))
    return out


def check_unordered_accumulate(src: SourceFile,
                               names: set[str]) -> list[Finding]:
    out = []
    text = "\n".join(src.code_lines)

    def flag(pos: int, msg: str):
        ln = text.count("\n", 0, pos) + 1
        if is_annotated(src, ln, "unordered-accumulate") or \
                allowlisted(src.path, "unordered-accumulate"):
            return
        out.append(Finding(src.path, ln, "unordered-accumulate", msg))

    for m in re.finditer(r"\bstd\s*::\s*(reduce|transform_reduce)\s*\(", text):
        flag(m.start(),
             f"std::{m.group(1)} has unspecified evaluation order; "
             "floating-point sums change with it — use a sequential loop "
             "(sorted, if over a hash container)")
    for m in re.finditer(r"\bstd\s*::\s*execution\s*::", text):
        flag(m.start(),
             "std::execution policies make evaluation order (and FP "
             "accumulation) nondeterministic in digest paths")
    for m in re.finditer(
            r"\baccumulate\s*\(\s*(" + IDENT + r")\s*(?:\.|->)\s*c?begin\b",
            text):
        if m.group(1) in names:
            flag(m.start(),
                 f"std::accumulate over unordered container '{m.group(1)}': "
                 "hash order changes FP accumulation — sort the values first")
    return out


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def collect_files(root: str, paths: list[str]) -> list[str]:
    out = []
    for p in paths:
        abs_p = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(abs_p):
            out.append(abs_p)
        elif os.path.isdir(abs_p):
            for dirpath, dirnames, filenames in os.walk(abs_p):
                dirnames[:] = [d for d in dirnames
                               if not d.startswith(".")
                               and not d.startswith("build")]
                for fn in sorted(filenames):
                    if fn.endswith(SOURCE_EXTS):
                        out.append(os.path.join(dirpath, fn))
        else:
            print(f"error: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return sorted(set(out))


def lint_files(root: str, abs_files: list[str]) -> list[Finding]:
    # Load everything under src/ too, so include closures resolve even
    # when linting a single file.
    universe = collect_files(root, ["src"]) if os.path.isdir(
        os.path.join(root, "src")) else []
    by_path: dict[str, SourceFile] = {}
    for abs_f in sorted(set(abs_files) | set(universe)):
        rel = os.path.relpath(abs_f, root).replace(os.sep, "/")
        by_path[rel] = load_source(abs_f, rel)

    decls_cache = {p: unordered_decls(s) for p, s in by_path.items()}

    findings: list[Finding] = []
    for abs_f in abs_files:
        rel = os.path.relpath(abs_f, root).replace(os.sep, "/")
        src = by_path[rel]
        names: set[str] = set()
        for dep in include_closure(src, by_path):
            names |= decls_cache[dep.path][0]
        findings += check_wall_clock(src)
        findings += check_unordered_iter(src, names)
        findings += check_pointer_key(src)
        findings += check_unordered_accumulate(src, names)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# ---------------------------------------------------------------------------
# Self-test: every tests/lint fixture must trip exactly the rules its
# `lint-expect:` comments announce; the clean fixture must pass.
# ---------------------------------------------------------------------------

def self_test(root: str) -> int:
    fixture_dir = os.path.join(root, "tests", "lint")
    if not os.path.isdir(fixture_dir):
        print(f"error: fixture dir missing: {fixture_dir}", file=sys.stderr)
        return 2
    fixtures = [os.path.join(fixture_dir, f)
                for f in sorted(os.listdir(fixture_dir))
                if f.endswith(SOURCE_EXTS)]
    if not fixtures:
        print("error: no fixtures in tests/lint", file=sys.stderr)
        return 2

    failures = 0
    for fx in fixtures:
        with open(fx, encoding="utf-8") as f:
            raw = f.read()
        expected = EXPECT_RE.findall(raw)
        findings = lint_files(root, [fx])
        got_rules = {f.rule for f in findings}
        rel = os.path.relpath(fx, root)
        ok = True
        for rule in expected:
            hits = [f for f in findings if f.rule == rule]
            if not hits:
                print(f"SELF-TEST FAIL {rel}: expected a [{rule}] finding, "
                      "got none")
                ok = False
        for rule in got_rules - set(expected):
            extra = [f for f in findings if f.rule == rule]
            for f in extra:
                print(f"SELF-TEST FAIL {rel}: unexpected finding "
                      f"{f.render()}")
            ok = False
        if not expected and findings:
            ok = False  # clean fixture tripped (reported above)
        status = "ok" if ok else "FAIL"
        exp = ",".join(expected) if expected else "clean"
        print(f"self-test {status}: {rel} ({exp}; "
              f"{len(findings)} finding(s))")
        if not ok:
            failures += 1
    if failures:
        print(f"self-test: {failures}/{len(fixtures)} fixtures failed")
        return 1
    print(f"self-test: all {len(fixtures)} fixtures behaved")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Determinism lint for the qnetp tree.")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files/dirs to lint (default: src/)")
    ap.add_argument("--root", default=REPO_ROOT)
    ap.add_argument("--self-test", action="store_true",
                    help="check that every tests/lint fixture trips its rule")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    if args.self_test:
        return self_test(root)

    paths = args.paths or ["src"]
    files = collect_files(root, paths)
    findings = lint_files(root, files)
    for f in findings:
        print(f.render())
    if findings:
        print(f"determinism-lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    if args.verbose:
        print(f"determinism-lint: clean ({len(files)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
