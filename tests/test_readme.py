"""The README's Library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text()
    library = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    scope = {}
    exec(code, scope)
    assert scope["res"].coeffs.to_json() == {"2": 1, "3": 1, "4": 0}
