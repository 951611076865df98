"""Count the code lines of a package: each module's count, then the total.

A code line holds a token other than a comment. A string that spans lines
counts on every line it covers, but a module, class or function docstring
does not count. Blank lines and comment lines do not count either, so the
figure moves only with the code itself.

Usage:
    python benchmarks/code_lines.py              # this checkout's src/fracsync
    python benchmarks/code_lines.py PACKAGE_DIR
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracsync"
# Tokens that hold no code of their own.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """Number of lines of `source` that hold code, docstrings left out."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE,
                        help="directory of the modules to count (default: %(default)s)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
