#!/usr/bin/env python3
"""Communication-determinism lint gate.

Static half of the communication contract; par/comm_audit.hpp is the
runtime half. Three rules, scanned over src/, tests/, bench/ and
examples/:

  * raw-tag-literal — the tag argument of Transport::send / recv /
    has_message must be a named constant (par/tags.hpp registry), never
    an integer literal. Literals sidestep the registry's compile-time
    uniqueness check, and a tag collision silently crosses two
    subsystems' message streams.
  * rank-guarded-collective / collective-in-rank-body — walks every
    `parallel_for_ranks` lambda: an allreduce under a branch whose
    condition mentions the rank parameter executes on a subset of ranks
    only, which on real hardware is a deadlock; and in this runtime
    collectives are orchestrator-driven, so ANY allreduce reachable from
    a rank body (directly or through functions defined in the scanned
    tree) is flagged. This is the bug class the comm audit catches at
    runtime; the lint catches it before the code ever runs.
  * unordered-fp-order — range-for iteration over a std::unordered_map /
    std::unordered_set feeding floating-point accumulation (`+=`) or
    message payloads (`.send`). Iteration order is unspecified and can
    change across libstdc++ versions or hash seeds, breaking the repo's
    bitwise-determinism claims.

A line may carry `// exw-comm-ok: <reason>` to suppress its findings.
Everything else counts against the per-file ratchet COMM_ALLOWANCE:
counts may only SHRINK (the tree starts clean, so the table starts
empty). A new finding — or an improvement without lowering the
allowance — fails CI, exactly like tools/lint_warm_path.py.

Usage: python3 tools/lint_comm.py [--root REPO_ROOT] [--self-test]
Exit status: 0 clean, 1 violations / stale allowlist / failed self-test.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

from cppscan import (CALL, CALL_EXCLUDE, CONTROL_KEYWORDS, body_span,
                     find_definitions, matching_paren, sources, split_args,
                     strip_comments_and_strings)

SCAN_DIRS = ["src", "tests", "bench", "examples"]

SUPPRESS = re.compile(r"//\s*exw-comm-ok:\s*\S")

# Transport entry points that carry a tag as their third argument.
TAG_CALL = re.compile(r"\.(?:send|recv|has_message)\s*(?:<[\w:\s,]*>)?\s*\(")
INT_LITERAL = re.compile(r"^[0-9][0-9']*$")

# A collective call token (Runtime::allreduce_* family).
COLLECTIVE = re.compile(r"\ballreduce_\w+\s*\(")

RANK_REGION = re.compile(r"\bparallel_for_ranks\s*\(")

# Declarations of unordered containers; group(1) is the variable name.
UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>[&\s]+"
    r"([A-Za-z_]\w*)")

# Frozen per-file allowances (shrink-only, like lint_warm_path.py's
# WARM_ALLOWANCE). The tree is clean at introduction, so this starts and
# should stay empty; prefer `// exw-comm-ok: reason` for the rare
# justified construct over growing this table.
COMM_ALLOWANCE: dict[str, int] = {}

def collective_reaching(files: dict[str, str]) -> set[str]:
    """Names of functions defined in the scanned tree whose bodies reach
    an allreduce_* call, directly or through other scanned definitions.
    The allreduce_* definitions themselves are excluded — calling them is
    what we detect, their bodies are the implementation."""
    bodies: dict[str, list[str]] = {}
    for code in files.values():
        for name, _, b0, b1 in find_definitions(code):
            if name.startswith("allreduce_"):
                continue
            bodies.setdefault(name, []).append(code[b0:b1])
    reaching: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, texts in bodies.items():
            if name in reaching:
                continue
            for text in texts:
                if COLLECTIVE.search(text):
                    reaching.add(name)
                    changed = True
                    break
                hit = False
                for cm in CALL.finditer(text):
                    callee = cm.group(1)
                    if callee in reaching and callee != name:
                        reaching.add(name)
                        changed = hit = True
                        break
                if hit:
                    break
    return reaching


def rank_guard_spans(body: str, rank_param: str) -> list[tuple[int, int]]:
    """Spans of `body` controlled by an if/else-if whose condition
    mentions the rank parameter."""
    spans = []
    if not rank_param:
        return spans
    rank_word = re.compile(rf"\b{re.escape(rank_param)}\b")
    for m in re.finditer(r"\bif\s*\(", body):
        open_paren = m.end() - 1
        close = matching_paren(body, open_paren)
        if close < 0:
            continue
        if not rank_word.search(body[open_paren:close]):
            continue
        # Guarded extent: the following brace block, or one statement.
        k = close + 1
        while k < len(body) and body[k] in " \t\n":
            k += 1
        if k < len(body) and body[k] == "{":
            spans.append((k, body_span(body, k)))
        else:
            semi = body.find(";", k)
            spans.append((k, len(body) if semi < 0 else semi + 1))
    return spans


def scan_tree(root: pathlib.Path):
    """Return (findings, counts). findings: (rel, lineno, category, text)."""
    files: dict[str, str] = {}
    raw_files: dict[str, list[str]] = {}
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sources(base):
            rel = path.relative_to(root).as_posix()
            raw = path.read_text(encoding="utf-8")
            files[rel] = strip_comments_and_strings(raw)
            raw_files[rel] = raw.splitlines()

    reaching = collective_reaching(files)
    findings = []

    def add(rel: str, pos: int, category: str, text: str,
            base_line: int = 0, code: str | None = None):
        src = files[rel] if code is None else code
        lineno = base_line + src.count("\n", 0, pos) + 1
        raw_line = raw_files[rel][lineno - 1] \
            if lineno <= len(raw_files[rel]) else ""
        if SUPPRESS.search(raw_line):
            return
        findings.append((rel, lineno, category, text.strip()))

    for rel, code in files.items():
        # Rule A: integer tag literal at a transport call site.
        for m in TAG_CALL.finditer(code):
            open_paren = m.end() - 1
            close = matching_paren(code, open_paren)
            if close < 0:
                continue
            args = split_args(code[open_paren + 1:close])
            if len(args) < 3:
                continue
            tag = args[2].strip()
            if INT_LITERAL.match(tag):
                add(rel, m.start(), "raw-tag-literal",
                    f"tag argument is the literal {tag}; use a named "
                    f"constant from par/tags.hpp")

        # Rule B: collectives inside parallel_for_ranks bodies.
        for m in RANK_REGION.finditer(code):
            open_paren = m.end() - 1
            lam = re.compile(r"\[[^\]]*\]\s*\(([^)]*)\)").search(
                code, open_paren)
            if lam is None:
                continue
            params = lam.group(1).strip()
            rank_param = ""
            if params:
                first = split_args(params)[0].strip()
                words = re.findall(r"[A-Za-z_]\w*", first)
                rank_param = words[-1] if words else ""
            brace = code.find("{", lam.end())
            if brace < 0:
                continue
            end = body_span(code, brace)
            body = code[brace:end]
            base_line = code.count("\n", 0, brace)
            guarded = rank_guard_spans(body, rank_param)

            def flag_collective(pos: int, what: str):
                in_guard = any(a <= pos < b for a, b in guarded)
                category = ("rank-guarded-collective" if in_guard
                            else "collective-in-rank-body")
                detail = (f"{what} under a branch on rank parameter "
                          f"'{rank_param}' — a subset of ranks would "
                          f"enter the collective (deadlock)"
                          if in_guard else
                          f"{what} inside a rank body — collectives are "
                          f"orchestrator-driven in this runtime")
                add(rel, pos, category, detail, base_line, body)

            for cm in COLLECTIVE.finditer(body):
                flag_collective(cm.start(), f"collective {cm.group(0)[:-1]}")
            for cm in CALL.finditer(body):
                callee = cm.group(1)
                if callee in CONTROL_KEYWORDS or callee in CALL_EXCLUDE:
                    continue
                if callee in reaching:
                    flag_collective(
                        cm.start(),
                        f"call to {callee}() which reaches a collective")

        # Rule C: unordered-container iteration feeding FP accumulation
        # or message payloads.
        unordered = set(UNORDERED_DECL.findall(code))
        if unordered:
            for m in re.finditer(r"\bfor\s*\(", code):
                open_paren = m.end() - 1
                close = matching_paren(code, open_paren)
                if close < 0:
                    continue
                head = code[open_paren + 1:close]
                # Range-for: a top-level `:` that is not part of `::`.
                parts = re.split(r"(?<!:):(?!:)", head, maxsplit=1)
                if len(parts) != 2:
                    continue
                range_words = re.findall(r"[A-Za-z_]\w*", parts[1])
                if not range_words or range_words[-1] not in unordered:
                    continue
                k = close + 1
                while k < len(code) and code[k] in " \t\n":
                    k += 1
                if k < len(code) and code[k] == "{":
                    loop_body = code[k:body_span(code, k)]
                else:
                    semi = code.find(";", k)
                    loop_body = code[k:len(code) if semi < 0 else semi + 1]
                if "+=" in loop_body or ".send" in loop_body:
                    add(rel, m.start(), "unordered-fp-order",
                        f"iteration over unordered container "
                        f"'{range_words[-1]}' feeds FP accumulation or a "
                        f"message payload; order is unspecified — use an "
                        f"ordered container or sort the keys first")

    counts: dict[str, int] = {}
    for rel, _, _, _ in findings:
        counts[rel] = counts.get(rel, 0) + 1
    return findings, counts


def self_test() -> int:
    """Seed a temp tree with one violation per rule (plus a suppressed
    one) and assert the scanner flags exactly the seeded lines."""
    seeded = r"""
#include <unordered_map>
void raw_tag(Transport& t, std::vector<int> payload) {
  t.send(RankId{0}, RankId{1}, 42, payload);
}
void guarded(Runtime& rt, const std::vector<double>& xs) {
  rt.parallel_for_ranks([&](RankId r) {
    if (r.value() == 0) {
      rt.allreduce_sum(xs);
    }
  });
}
void bare_in_body(Runtime& rt, const std::vector<double>& xs) {
  rt.parallel_for_ranks([&](RankId rank) {
    rt.allreduce_sum(xs);
  });
}
double unordered_sum(const std::unordered_map<int, double>& weights) {
  double s = 0.0;
  for (const auto& [k, v] : weights) {
    s += v;
  }
  return s;
}
void suppressed(Transport& t, std::vector<int> payload) {
  t.send(RankId{0}, RankId{1}, 43, payload);  // exw-comm-ok: self-test
}
"""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "src").mkdir()
        (root / "src" / "seeded.cpp").write_text(seeded, encoding="utf-8")
        findings, _ = scan_tree(root)
    got = {category for _, _, category, _ in findings}
    want = {"raw-tag-literal", "rank-guarded-collective",
            "collective-in-rank-body", "unordered-fp-order"}
    errors = []
    if not want <= got:
        errors.append(f"missing categories: {sorted(want - got)} "
                      f"(got {sorted(got)})")
    if len(findings) != 4:
        errors.append(
            f"expected exactly 4 findings (suppressed line must not "
            f"count), got {len(findings)}: {findings}")
    if errors:
        print("lint_comm --self-test: FAILED", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print("lint_comm --self-test: OK (all rule categories fire; "
          "suppression honored)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules fire on seeded violations")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root)
    if not (root / "src").is_dir():
        print(f"lint_comm: no src/ under {root}", file=sys.stderr)
        return 1

    findings, counts = scan_tree(root)
    by_file: dict[str, list] = {}
    for rel, lineno, category, text in findings:
        by_file.setdefault(rel, []).append((lineno, category, text))

    failures = []
    for rel in sorted(set(counts) | set(COMM_ALLOWANCE)):
        have = counts.get(rel, 0)
        allowed = COMM_ALLOWANCE.get(rel, 0)
        if have > allowed:
            failures.append(
                f"{rel}: {have} comm finding(s), allowance is {allowed} — "
                f"use par/tags.hpp constants, hoist collectives to the "
                f"orchestrator, or justify with `// exw-comm-ok: reason`:")
            for lineno, category, text in by_file.get(rel, []):
                failures.append(f"  {rel}:{lineno}: [{category}] {text}")
        elif have < allowed:
            failures.append(
                f"{rel}: improved to {have} comm finding(s) but the "
                f"allowance is still {allowed} — shrink its entry in "
                f"tools/lint_comm.py to ratchet the gate.")

    if failures:
        print("\n".join(failures), file=sys.stderr)
        print(f"\nlint_comm: FAILED ({len(failures)} finding(s))",
              file=sys.stderr)
        return 1
    print(f"lint_comm: OK ({len(findings)} allowlisted finding(s) "
          f"remaining)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
