"""Count the code lines of Python sources: ``python tests/code_lines.py src/repro``
(one count per argument, a directory's ``*.py`` files or one file).

A line is a code line when it holds at least one token that is not a
comment, a line break (``NL`` / ``NEWLINE``), an ``INDENT`` / ``DEDENT``,
or part of a docstring — a statement that is nothing but string
literals.  Blank lines, comments and docstrings therefore never count;
a string passed as an argument does, and so does every line a
multi-line expression spans.  Stdlib ``tokenize`` only, so the count
is the same wherever the tests run.
"""

from __future__ import annotations

import io
import pathlib
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
}


def count_source(source: str) -> int:
    """Code lines of one module's text."""
    lines: set[int] = set()
    statement = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif token.type not in _NOT_CODE:
            statement.append(token)
    return len(lines)


def count_tree(root: pathlib.Path) -> int:
    """Code lines of ``root`` when it is a file, else of every ``*.py`` under it."""
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    return sum(count_source(path.read_text(encoding="utf-8")) for path in paths)


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(count_tree(pathlib.Path(arg)))
