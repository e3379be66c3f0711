"""The code-line counter every change's line delta is read with."""

import pathlib
import subprocess
import sys
import textwrap

from tests.code_lines import count_source, count_tree

SOURCE = textwrap.dedent(
    '''
    """Module docstring: never code."""

    # A comment line.
    import os  # a trailing comment does not hide the code


    def f(path):
        """Function docstring,
        over two lines."""
        return os.path.join(
            path,
            "a string argument is code",
        )


    class C:
        "A one-line docstring in plain quotes."

        x = """a multi-line string
    assigned is code"""
    '''
)


def test_counts_only_code_lines():
    # import, def, the four lines of the call, class, and the two
    # lines of the assigned string.
    assert count_source(SOURCE) == 9


def test_blank_and_comment_only_sources_are_empty():
    assert count_source("") == 0
    assert count_source("# nothing\n\n") == 0
    assert count_source('"""Only a docstring."""\n') == 0


def test_a_file_argument_counts_that_file(tmp_path):
    (tmp_path / "pkg").mkdir()
    module = tmp_path / "pkg" / "module.py"
    module.write_text(SOURCE)
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert count_tree(module) == count_source(SOURCE) == 9
    assert count_tree(tmp_path / "pkg") == 9


def test_the_command_prints_one_count_per_argument(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(SOURCE)
    script = pathlib.Path(__file__).resolve().parent / "code_lines.py"
    out = subprocess.run([sys.executable, str(script), str(module), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["9", "9"]
