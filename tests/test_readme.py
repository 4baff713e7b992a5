"""The README's library sketch runs as written against the package."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    # The one print: the warm preset's transmission, a single float.
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and float(printed[0]) > 0.0
