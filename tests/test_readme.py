"""The README's library example runs and prints what its comments state."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    stated = re.search(r"print\(result\.rates\)\s*# ~ \(([\d.]+), ([\d.]+)\)",
                       code)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    rates = namespace["result"].rates
    assert [round(r, 4) for r in rates] == [float(v) for v in stated.groups()]
