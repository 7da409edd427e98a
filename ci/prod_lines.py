#!/usr/bin/env python3
"""Count production lines of Rust sources.

For every `.rs` file under the given directories, print the lines before
the file's `mod tests` line (every line when it has none) and how many
of those are non-blank and do not start with `//`, then both totals.

    python3 ci/prod_lines.py crates/core/src/enforce
"""

import re
import sys
from pathlib import Path

TESTS = re.compile(r"^\s*(#\[cfg\(test\)\]\s*)?mod tests\b")


def count(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    end = next((i for i, line in enumerate(lines) if TESTS.match(line)), len(lines))
    prod = lines[:end]
    code = sum(1 for line in prod if line.strip() and not line.lstrip().startswith("//"))
    return len(prod), code


def main(dirs):
    if not dirs:
        sys.exit(__doc__.strip())
    files = sorted(f for d in dirs for f in Path(d).rglob("*.rs"))
    total = code_total = 0
    for f in files:
        lines, code = count(f)
        total += lines
        code_total += code
        print(f"{lines:7} {code:7}  {f}")
    print(f"{total:7} {code_total:7}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
