"""The code-line counter every change's line delta is read with."""

import textwrap

from tests.code_lines import count_source

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
