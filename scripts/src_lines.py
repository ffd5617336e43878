"""Count the lines of the package's source, split by kind.

Each line of `src/frictioncast/*.py` is counted once, as one of:
- docstring: inside the docstring of the module, a class or a function
  (its blank lines too);
- blank: any other line of only whitespace;
- comment: a line whose first non-blank character is `#`;
- code: every other line (a code line with a trailing comment is code).

    python3 scripts/src_lines.py                       # this checkout's src/
    python3 scripts/src_lines.py --src OTHER/src
    python3 scripts/src_lines.py --against OTHER/src   # both trees

With `--against`, both trees are printed (`--src` first) with the change
from the other tree to `--src`, so a cut shows whether it removed code or
only docstrings and comments. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")  # in the printed order


def docstring_lines(source: str) -> set[int]:
    """The line numbers (from 1) that docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(src: Path) -> dict[str, int]:
    """Lines of the package under `src`, by kind, plus their total."""
    totals = dict.fromkeys(KINDS, 0)
    for path in sorted((src / "frictioncast").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        docs = docstring_lines(source)
        for no, line in enumerate(source.splitlines(), start=1):
            text = line.strip()
            kind = ("docstring" if no in docs else "blank" if not text
                    else "comment" if text.startswith("#") else "code")
            totals[kind] += 1
    totals["total"] = sum(totals.values())
    return totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the frictioncast package")
    parser.add_argument("--against", type=Path,
                        help="a second package directory to compare with")
    args = parser.parse_args()
    trees = [args.src] + ([args.against] if args.against else [])
    for tree in trees:
        if not (tree / "frictioncast").is_dir():
            parser.error(f"{tree}: no frictioncast package")
    counts = [count(tree) for tree in trees]
    print(f"{'tree':<10}" + "".join(f"{k:>11}" for k in (*KINDS, "total")))
    for label, c in zip(("src", "against"), counts):
        print(f"{label:<10}" + "".join(f"{v:>11}" for v in c.values()))
    if args.against:
        src, other = counts
        print(f"{'change':<10}" + "".join(f"{src[k] - other[k]:>+11}"
                                          for k in src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
