import doctest
import re
from pathlib import Path

import pytest

import permfib.bijections
import permfib.compositions
import permfib.permutations
import permfib.regex
import permfib.series
import permfib.tilings
import permfib.words


@pytest.mark.parametrize(
    "module",
    [
        permfib.bijections,
        permfib.compositions,
        permfib.permutations,
        permfib.regex,
        permfib.series,
        permfib.tilings,
        permfib.words,
    ],
    ids=lambda module: module.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module)
    assert results.failed == 0
    assert results.attempted > 0


def test_readme_python_blocks():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for block in re.finditer(r"```python\n(.*?)```", text, re.DOTALL):
        lineno = text.count("\n", 0, block.start(1))
        runner.run(parser.get_doctest(block.group(1), {}, "README.md", str(readme), lineno))
    results = runner.summarize(verbose=False)
    assert results.failed == 0
    assert results.attempted > 0
