"""Shared C++ scanner for the lint gates in tools/.

A deliberately small lexical front end: it blanks comments and string
literals, matches brackets, and finds function definitions and call
sites by name. The gates (lint_index_types.py, lint_warm_path.py,
lint_comm.py) import it and keep their own rules, allowance tables and
messages.
"""

from __future__ import annotations

import pathlib
import re
from collections.abc import Iterator

SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

# Function definition heads: `name(args...) ... {` with no `;` between
# the parameter list and the brace. Deliberately loose — it also matches
# control keywords, which CONTROL_KEYWORDS filters out.
DEF_HEAD = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch",
    "alignof", "decltype", "static_assert", "defined", "assert",
}

# Calls inside a body: identifier followed by `(`. Same keyword filter.
CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")

# Names excluded from call-graph edges: standard container methods (a
# `.find(` on a std::map would otherwise pull in any src/ function that
# happens to be named `find`) — the gates police their misuse directly —
# plus ubiquitous tiny accessors that only add noise.
CALL_EXCLUDE = {
    "find", "find_if", "insert", "emplace", "emplace_back", "push_back",
    "resize", "reserve", "assign", "erase", "clear", "count", "at",
    "begin", "end", "size", "data", "empty", "front", "back", "swap",
    "value", "get", "min", "max", "abs", "move", "region",
}


def sources(base: pathlib.Path) -> Iterator[pathlib.Path]:
    """C++ source files under `base`, in sorted order."""
    for path in sorted(base.rglob("*")):
        if path.suffix in SUFFIXES:
            yield path


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif ch in "\"'":
            j = i + 1
            while j < n and text[j] != ch:
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def matching_paren(code: str, open_paren: int) -> int:
    """Index of the `)` matching the `(` at open_paren (-1 if none)."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def body_span(code: str, open_brace: int) -> int:
    """Index one past the `}` matching the `{` at open_brace."""
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def split_args(argtext: str) -> list[str]:
    """Split a call's argument text at top-level commas."""
    args, depth, cur = [], 0, []
    for ch in argtext:
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        args.append("".join(cur))
    return args


def find_definitions(code: str):
    """Yield (name, head_start, body_start, body_end) for every function
    definition in stripped source. Heuristic: an identifier + `(...)`
    where the matching `)` is followed (modulo specifiers) by `{` and the
    parameter list contains no `;` (rules out control blocks over
    statements and class bodies)."""
    for m in DEF_HEAD.finditer(code):
        name = m.group(1)
        if name in CONTROL_KEYWORDS:
            continue
        # Find the matching close paren.
        depth, i = 0, m.end() - 1
        close = -1
        while i < len(code):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    close = i
                    break
            elif code[i] == ";" and depth == 1:
                break  # parameter lists don't contain `;`
            i += 1
        if close < 0:
            continue
        # Skip trailing specifiers up to `{` or bail at `;`/other.
        j = close + 1
        while j < len(code):
            rest = code[j:j + 24]
            if code[j] in " \t\n":
                j += 1
            elif rest.startswith(("const", "noexcept", "override", "final")):
                j += len(re.match(r"\w+", rest).group(0))
            elif rest.startswith("->") or code[j] == ":":
                # Trailing return type or constructor init list.
                k = code.find("{", j)
                semi = code.find(";", j)
                j = -1 if k < 0 or (0 <= semi < k) else k
                break
            elif code[j] == "{":
                break
            else:
                j = -1
                break
        if j < 0 or j >= len(code) or code[j] != "{":
            continue
        yield name, m.start(), j, body_span(code, j)
