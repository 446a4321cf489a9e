#!/usr/bin/env python3
"""Index-type lint gate for src/.

The strong index types (GlobalIndex / LocalIndex / RankId / EntryOffset,
see src/common/strong_id.hpp) only help where they are actually used, so
this gate forbids the two habits that reintroduce raw-integer indexing:

  1. `for (int ...)` / `for (int32_t ...)` loop induction variables.
     Loops over an index space must use the space's StrongId (or a
     64-bit raw type such as `std::size_t`). Plain `int` silently
     truncates past 2^31.
  2. C-style casts to integer types, e.g. `(int)x` or `(size_t)i`.
     Narrowing between index spaces must go through
     `exw::checked_narrow<To>()`; sanctioned raw exits are `.value()`
     and `static_cast<std::size_t>(id)` — both greppable, neither
     C-style.

Per-file allowlist: the counts below were frozen when the gate was
introduced and may only SHRINK. Small bounded counters (Krylov basis
loops, the 8 corners of a hex, smoother sweeps) legitimately stay `int`;
they are covered by their file's frozen allowance. A new raw index loop
anywhere — or any count above a file's allowance — fails CI. When a file
improves, the gate also fails until its allowance is lowered to match,
so progress is ratcheted in.

Usage: python3 tools/lint_index_types.py [--root REPO_ROOT]
Exit status: 0 clean, 1 violations or stale allowlist.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

from cppscan import sources, strip_comments_and_strings

# Raw int loop induction variables (rule 1).
RAW_INT_LOOP = re.compile(r"\bfor\s*\(\s*(?:const\s+)?(?:std::)?(?:int|int32_t)\s+\w+")

# C-style casts to integer types (rule 2). The `(?<![\w>])` guard keeps
# function calls like `f(int)` declarations and template args out.
C_STYLE_INT_CAST = re.compile(
    r"(?<![\w>])\(\s*(?:unsigned\s+)?(?:std::)?"
    r"(?:int|long|short|int32_t|int64_t|uint32_t|uint64_t|size_t|ptrdiff_t)"
    r"(?:\s+long)?\s*\)\s*[A-Za-z_(]"
)

# Frozen per-file allowances for rule 1 (rule 2 has no allowance: zero
# C-style integer casts exist in src/ and none may be added). Counts may
# only decrease; delete a line once its file reaches zero.
LOOP_ALLOWANCE = {
    "src/mesh/generators.cpp": 2,
    "src/mesh/meshdb.cpp": 4,
    "src/mesh/overset.cpp": 3,
    "src/par/thread_pool.cpp": 2,
    "src/part/graph_partition.cpp": 1,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = pathlib.Path(args.root)
    src = root / "src"
    if not src.is_dir():
        print(f"lint_index_types: no src/ under {root}", file=sys.stderr)
        return 1

    failures = []
    seen = {}
    for path in sources(src):
        rel = path.relative_to(root).as_posix()
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        loop_hits = [
            (lineno, line.strip())
            for lineno, line in enumerate(code.splitlines(), 1)
            if RAW_INT_LOOP.search(line)
        ]
        cast_hits = [
            (lineno, line.strip())
            for lineno, line in enumerate(code.splitlines(), 1)
            if C_STYLE_INT_CAST.search(line)
        ]
        seen[rel] = len(loop_hits)

        allowed = LOOP_ALLOWANCE.get(rel, 0)
        if len(loop_hits) > allowed:
            failures.append(
                f"{rel}: {len(loop_hits)} raw int loop variable(s), "
                f"allowance is {allowed} — use the index space's StrongId "
                f"(or a 64-bit raw type such as std::size_t):"
            )
            failures += [f"  {rel}:{ln}: {txt}" for ln, txt in loop_hits]
        elif len(loop_hits) < allowed:
            failures.append(
                f"{rel}: improved to {len(loop_hits)} raw int loop variable(s) "
                f"but the allowance is still {allowed} — shrink its entry in "
                f"tools/lint_index_types.py to ratchet the gate."
            )
        for ln, txt in cast_hits:
            failures.append(
                f"{rel}:{ln}: C-style integer cast (use checked_narrow<To>() "
                f"or static_cast): {txt}"
            )

    for rel in sorted(LOOP_ALLOWANCE):
        if rel not in seen:
            failures.append(
                f"{rel}: listed in LOOP_ALLOWANCE but does not exist — "
                f"remove the stale entry."
            )

    if failures:
        print("\n".join(failures), file=sys.stderr)
        print(f"\nlint_index_types: FAILED ({len(failures)} finding(s))",
              file=sys.stderr)
        return 1
    total = sum(seen.values())
    print(f"lint_index_types: OK ({len(seen)} files, "
          f"{total} allowlisted raw int loops remaining)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
