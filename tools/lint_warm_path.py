#!/usr/bin/env python3
"""Warm-path purity lint gate for src/.

The runtime half of the purity contract (perf/purity.hpp) counts heap
allocations inside EXW_PURITY_REGION scopes while the code runs. This
gate is the static half: it walks the call graph from every function
annotated `EXW_WARM_FN` and flags constructs that are categorically
wrong on a warm (steady-state, structure-frozen) path:

  * sorting          — std::sort / stable_sort / partial_sort /
                       nth_element. Warm paths replay a frozen plan;
                       ordering work belongs in plan build.
  * searching        — std::lower_bound / upper_bound / binary_search /
                       std::find / std::search / .find( on containers.
                       Position lookups must be precomputed offsets.
  * container growth — .push_back( / .emplace_back( / .emplace( /
                       .resize( / .reserve( / .insert( / .assign(.
                       Warm scratch is sized once at plan build.
  * allocation       — `new`, std::make_unique, std::make_shared.

A line may carry `// exw-warm-ok: <reason>` to suppress its findings
(used where a construct is provably cold-once or covered by a runtime
EXW_PURITY_ALLOW scope with the same justification). Everything else is
counted against the per-file ratchet below: counts were frozen when the
gate was introduced and may only SHRINK. A new finding anywhere — or a
count above a file's allowance — fails CI; an improvement fails too
until the allowance is lowered, so progress is ratcheted in.

Call-graph notes: reachability is name-based (an identifier called from
a warm body that matches a function *defined* in src/ pulls that
function's definitions into the warm set). Overloads and same-named
methods are conservatively lumped together. cfd::Simulation's warm
Picard branches are deliberately NOT EXW_WARM_FN roots — those callers
own the cold fallback too, so they are policed by runtime
EXW_PURITY_REGIONs only (see DESIGN.md §14).

Usage: python3 tools/lint_warm_path.py [--root REPO_ROOT]
Exit status: 0 clean, 1 violations or stale allowlist.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

from cppscan import (CALL, CALL_EXCLUDE, CONTROL_KEYWORDS, find_definitions,
                     sources, strip_comments_and_strings)

# Constructs that are wrong on a warm path, with the category reported.
FORBIDDEN = [
    (re.compile(r"\bstd::(?:stable_|partial_)?sort\s*\("), "sort"),
    (re.compile(r"\bstd::nth_element\s*\("), "sort"),
    (re.compile(r"\bstd::(?:lower|upper)_bound\s*\("), "search"),
    (re.compile(r"\bstd::binary_search\s*\("), "search"),
    (re.compile(r"\bstd::(?:find|find_if|search)\s*\("), "search"),
    (re.compile(r"\.find\s*\("), "search"),
    (re.compile(r"\.(?:push_back|emplace_back|emplace)\s*\("), "growth"),
    (re.compile(r"\.(?:resize|reserve|insert|assign)\s*\("), "growth"),
    (re.compile(r"(?<!\w)new\s+[A-Za-z_:]"), "alloc"),
    (re.compile(r"\bstd::make_(?:unique|shared)\s*<"), "alloc"),
]

SUPPRESS = re.compile(r"//\s*exw-warm-ok:\s*\S")

# Marks a function definition as a warm-path call-graph root.
WARM_MACRO = "EXW_WARM_FN"

# Frozen per-file allowances. Counts may only decrease; delete a line
# once its file reaches zero. Every entry is a construct inside the warm
# call graph that is justified at runtime by an EXW_PURITY_ALLOW scope
# (collective staging, first-refill scratch priming) — see the matching
# comments at each site.
WARM_ALLOWANCE: dict[str, int] = {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = pathlib.Path(args.root)
    src = root / "src"
    if not src.is_dir():
        print(f"lint_warm_path: no src/ under {root}", file=sys.stderr)
        return 1

    # name -> [(rel, raw_lines, code, body_start, body_end)]
    defs: dict[str, list] = {}
    roots: list[str] = []
    for path in sources(src):
        rel = path.relative_to(root).as_posix()
        raw = path.read_text(encoding="utf-8")
        code = strip_comments_and_strings(raw)
        raw_lines = raw.splitlines()
        for name, head, b0, b1 in find_definitions(code):
            defs.setdefault(name, []).append((rel, raw_lines, code, b0, b1))
            # Warm root if EXW_WARM_FN appears between the previous
            # statement boundary and this definition's head.
            prefix = code[:head]
            stmt = max(prefix.rfind(";"), prefix.rfind("}"))
            if WARM_MACRO in prefix[stmt + 1:]:
                roots.append(name)

    if not roots:
        print("lint_warm_path: no EXW_WARM_FN roots found in src/",
              file=sys.stderr)
        return 1

    # BFS over name-matched calls.
    warm: set[str] = set()
    via: dict[str, str] = {}
    queue = list(dict.fromkeys(roots))
    while queue:
        fn = queue.pop()
        if fn in warm:
            continue
        warm.add(fn)
        for _, _, code, b0, b1 in defs.get(fn, []):
            for cm in CALL.finditer(code, b0, b1):
                callee = cm.group(1)
                if callee in CONTROL_KEYWORDS or callee in CALL_EXCLUDE \
                        or callee == fn:
                    continue
                if callee in defs and callee not in warm:
                    via.setdefault(callee, fn)
                    queue.append(callee)

    # Scan every warm function's body lines for forbidden constructs.
    findings = []           # (rel, lineno, fn, category, text)
    counts: dict[str, int] = {}
    scanned: set[tuple] = set()
    for fn in sorted(warm):
        for rel, raw_lines, code, b0, b1 in defs.get(fn, []):
            key = (rel, b0, b1)
            if key in scanned:
                continue
            scanned.add(key)
            first_line = code.count("\n", 0, b0) + 1
            for off, line in enumerate(code[b0:b1].splitlines()):
                lineno = first_line + off
                raw_line = raw_lines[lineno - 1] if lineno <= len(raw_lines) \
                    else ""
                if SUPPRESS.search(raw_line):
                    continue
                for pat, category in FORBIDDEN:
                    if pat.search(line):
                        counts[rel] = counts.get(rel, 0) + 1
                        findings.append(
                            (rel, lineno, fn, category, line.strip()))

    failures = []
    by_file: dict[str, list] = {}
    for rel, lineno, fn, category, text in findings:
        by_file.setdefault(rel, []).append((lineno, fn, category, text))
    for rel in sorted(set(counts) | set(WARM_ALLOWANCE)):
        have = counts.get(rel, 0)
        allowed = WARM_ALLOWANCE.get(rel, 0)
        if have > allowed:
            hits = by_file.get(rel, [])
            failures.append(
                f"{rel}: {have} warm-path finding(s), allowance is {allowed} "
                f"— move the work to plan build, or justify it with a "
                f"runtime EXW_PURITY_ALLOW plus `// exw-warm-ok: reason`:")
            for lineno, fn, category, text in hits:
                trail = via.get(fn)
                how = f" (reached via {trail})" if trail else ""
                failures.append(
                    f"  {rel}:{lineno}: [{category}] in {fn}(){how}: {text}")
        elif have < allowed:
            failures.append(
                f"{rel}: improved to {have} warm-path finding(s) but the "
                f"allowance is still {allowed} — shrink its entry in "
                f"tools/lint_warm_path.py to ratchet the gate.")

    if failures:
        print("\n".join(failures), file=sys.stderr)
        print(f"\nlint_warm_path: FAILED ({len(failures)} finding(s))",
              file=sys.stderr)
        return 1
    total = sum(counts.values())
    print(f"lint_warm_path: OK ({len(set(roots))} warm roots, "
          f"{len(warm)} reachable functions, "
          f"{total} allowlisted findings remaining)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
