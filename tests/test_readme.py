import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_gives_the_stated_coefficients():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    # The README states ~0.38 for the trimmed fit and ~0.75 for fit_kliep.
    assert abs(float(ns["res"].delta_best[0]) - 0.38) < 0.01
    kliep = ns["fit_kliep"](ns["xp"], ns["xq"], ns["fmap"], ns["TrimConfig"]())
    assert abs(float(kliep.delta_best[0]) - 0.75) < 0.01
