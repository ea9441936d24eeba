#!/usr/bin/env python3
"""Count non-test and test lines of Rust source per crate and for the workspace.

Usage: python3 .github/line_count.py [REPO_ROOT]

The rule, so that every count of two trees is made the same way:

- Counted: every `.rs` file under `crates/`, `src/`, `tests/` and
  `examples/` (not `vendor/`, `relbench/` or `target/`). A line is a
  physical line, blank and comment lines included.
- Test lines: every line of a file under a `tests/` or `benches/`
  directory, and every line of an item marked `#[cfg(test)]`, attribute
  line included: a `mod tests { ... }` block, a function, an impl.
- A file module declared under `#[cfg(test)]` (`#[cfg(test)] mod x;`) is
  test code too: all of `x.rs` (or `x/mod.rs`) counts as test, since it is
  compiled only into tests. `crates/logicsim/src/test_cells.rs` is such a
  file.
- A file whose first item is `#![cfg(test)]` is test code as a whole.
- Everything else is non-test. A crate is named by its directory under
  `crates/`; the root `src/`, `tests/` and `examples/` belong to the
  `reliaware` facade package.

The script only reads files and prints; it sets no threshold.
"""

import re
import sys
from pathlib import Path

CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]")
INNER_CFG_TEST = re.compile(r"^\s*#!\[cfg\(test\)\]")
FILE_MOD = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+([A-Za-z_][A-Za-z0-9_]*)\s*;")


def code_only(line, state):
    """`line` with comments, strings and char literals blanked out.

    `state` carries an open block comment (its nesting depth) or an open
    string (its closing delimiter) across lines.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        if state["comment"]:
            if line.startswith("*/", i):
                state["comment"] -= 1
                i += 2
            elif line.startswith("/*", i):
                state["comment"] += 1
                i += 2
            else:
                i += 1
            continue
        if state["string"]:
            close = state["string"]
            if close == '"' and line[i] == "\\":
                i += 2
            elif line.startswith(close, i):
                state["string"] = None
                i += len(close)
            else:
                i += 1
            continue
        c = line[i]
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            state["comment"] = 1
            i += 2
            continue
        raw = re.match(r'b?r(#*)"', line[i:])
        if raw and (i == 0 or not (line[i - 1].isalnum() or line[i - 1] == "_")):
            state["string"] = '"' + raw.group(1)
            i += raw.end()
            continue
        if c == '"':
            state["string"] = '"'
            i += 1
            continue
        if c == "'":
            # A char literal ('x', '\n', '\u{1F600}') or a lifetime ('a).
            lit = re.match(r"'(\\u\{[0-9A-Fa-f]+\}|\\.|[^\\'])'", line[i:])
            if lit:
                i += lit.end()
                continue
        out.append(c)
        i += 1
    return "".join(out)


def test_line_mask(lines):
    """Per line: True when it belongs to a `#[cfg(test)]` item. Also returns
    the names of file modules declared under `#[cfg(test)]`."""
    mask = [False] * len(lines)
    test_mods = []
    state = {"comment": 0, "string": None}
    code = [code_only(line, state) for line in lines]
    i = 0
    while i < len(lines):
        if not CFG_TEST.match(code[i]):
            i += 1
            continue
        start = i
        # Skip further attributes to the item itself.
        j = i + 1
        while j < len(lines) and code[j].strip().startswith("#["):
            j += 1
        file_mod = FILE_MOD.match(code[j]) if j < len(lines) else None
        if file_mod:
            test_mods.append(file_mod.group(1))
            end = j
        else:
            # The item ends at a `;` outside braces or at the brace that
            # closes its first `{`.
            depth, opened, end = 0, False, len(lines) - 1
            for k in range(j, len(lines)):
                for ch in code[k]:
                    if ch == "{":
                        depth += 1
                        opened = True
                    elif ch == "}":
                        depth -= 1
                    elif ch == ";" and depth == 0 and not opened:
                        break
                else:
                    if opened and depth == 0:
                        end = k
                        break
                    continue
                end = k
                break
        for k in range(start, end + 1):
            mask[k] = True
        i = end + 1
    return mask, test_mods


def owner(path, root):
    """The crate a file belongs to: `crates/<name>` or the facade."""
    parts = path.relative_to(root).parts
    return parts[1] if parts[0] == "crates" else "reliaware"


def count(root):
    files = []
    for top in ("crates", "src", "tests", "examples"):
        files.extend(sorted((root / top).rglob("*.rs")) if (root / top).is_dir() else [])
    files = [f for f in files if "target" not in f.relative_to(root).parts]
    whole_test = set()
    partial = {}
    for f in files:
        rel = f.relative_to(root).parts
        lines = f.read_text(encoding="utf-8").splitlines()
        if "tests" in rel[:-1] or "benches" in rel[:-1]:
            whole_test.add(f)
            continue
        if any(INNER_CFG_TEST.match(line) for line in lines[:5]):
            whole_test.add(f)
            continue
        mask, test_mods = test_line_mask(lines)
        partial[f] = mask
        # `mod x;` in `lib.rs`, `main.rs` or `mod.rs` names a sibling;
        # elsewhere it names a file in the directory of the module's name.
        base = f.parent if f.name in ("lib.rs", "main.rs", "mod.rs") else f.with_suffix("")
        for name in test_mods:
            for candidate in (base / f"{name}.rs", base / name / "mod.rs"):
                if candidate.exists():
                    whole_test.add(candidate)
    totals = {}
    for f in files:
        lines = f.read_text(encoding="utf-8").splitlines()
        if f in whole_test:
            test = len(lines)
        else:
            test = sum(partial[f])
        entry = totals.setdefault(owner(f, root), [0, 0])
        entry[0] += len(lines) - test
        entry[1] += test
    return totals


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    totals = count(root)
    print(f"{'crate':<12} {'non-test':>9} {'test':>7}")
    for name in sorted(totals):
        non_test, test = totals[name]
        print(f"{name:<12} {non_test:>9} {test:>7}")
    print(f"{'workspace':<12} {sum(t[0] for t in totals.values()):>9} "
          f"{sum(t[1] for t in totals.values()):>7}")


if __name__ == "__main__":
    main()
