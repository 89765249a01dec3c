#!/usr/bin/env python3
"""Counts the repository's non-test Rust lines.

The rule: every physical line of every `.rs` file under `crates/*/src`
and `src/`, except the crates under `crates/compat` (local stand-ins for
third-party crates) and the lines of `#[cfg(test)]` items. A line is what
`str.splitlines` yields, so a missing final newline changes nothing;
blank and comment lines count. A `#[cfg(test)]` item spans from the
first of its outer doc comments and attributes through its closing brace,
or its semicolon when it has no body; braces inside comments, strings and
character literals do not count.

Usage: python3 scripts/count_lines.py [REPO_ROOT]   (default: cwd)
"""

import pathlib
import re
import sys

# Comments, strings, raw strings and character literals: blanked before
# braces are counted. A lifetime (`'a`) has no closing quote and stays.
NOT_CODE = re.compile(
    r"//[^\n]*"
    r"|/\*.*?\*/"
    r'|b?r(#*)".*?"\1'
    r'|b?"(?:\\.|[^"\\])*"'
    r"|b?'(?:\\.|[^'\\])'",
    re.S,
)


def count_file(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    code = NOT_CODE.sub(lambda m: re.sub(r"[^\n]", " ", m[0]), text).splitlines()
    kept = [True] * len(lines)
    i = 0
    while i < len(lines):
        if lines[i].strip() != "#[cfg(test)]":
            i += 1
            continue
        start = i
        while start > 0 and lines[start - 1].lstrip().startswith(("///", "#[")):
            start -= 1
        depth, opened, end = 0, False, i
        for end in range(i + 1, len(lines)):
            depth += code[end].count("{") - code[end].count("}")
            opened = opened or "{" in code[end]
            if (opened and depth == 0) or (not opened and ";" in code[end]):
                break
        kept[start : end + 1] = [False] * (end + 1 - start)
        i = end + 1
    return sum(kept)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    files = list(root.glob("src/**/*.rs")) + [
        p
        for p in root.glob("crates/*/src/**/*.rs")
        if p.relative_to(root).parts[1] != "compat"
    ]
    print(sum(count_file(path) for path in files))


if __name__ == "__main__":
    main()
