"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    bound = namespace["bound"]
    assert bound.name == "conjecture_weighted" and bound.holds_exact is True
    assert bound.margin_log2 > 0
    assert namespace["I"].verify_cover(namespace["g"], namespace["cert"]) == (True, "ok")
