"""The README's python examples run as written, on numpy alone.

Every ```python block of README.md runs, in order, in one fresh interpreter
with `src` on the path and the test-only packages made unimportable, so the
examples guard both the documented API and the rule that the library needs
only numpy at run time.  The output must be the lines the README's
`print(...)  # value` comments state.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLOCKED = ("sympy", "scipy", "mpmath", "hypothesis", "pytest")


def test_readme_examples_run_on_numpy_alone():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    code = "\n".join(blocks)
    # the stated value is the comment up to an optional "(explanation)"
    stated = re.findall(r"^print\(.*\)\s+# (.*?)(?: \(.*\))?$", code, re.M)
    assert stated and len(stated) == code.count("print(")
    prelude = "import sys\n" + "".join(f"sys.modules[{m!r}] = None\n" for m in BLOCKED)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", prelude + code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout.splitlines() == stated
