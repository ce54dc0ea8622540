"""The README's library example runs, and each commented value holds."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    block = re.search(r"## Library example.*?```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if comment:
            assert repr(eval(code, scope)) == comment, line
            checked += 1
        elif code:
            exec(code, scope)
    assert checked == 6
