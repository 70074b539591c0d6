"""README examples run as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library", "exec"), {})
    pulses, time, fidelity = capsys.readouterr().out.split()
    assert pulses == "5"
    assert float(time) == 5 * math.pi
    assert 0.99 < float(fidelity) <= 1.0
