"""The python examples of README.md run as written."""

import re
from pathlib import Path

from infbvp import newton

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run_and_the_quick_start_solves_cold(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    calls = []
    linear_solve = newton.linear_solve

    def counted(jacobian, rhs):
        calls.append(jacobian)
        return linear_solve(jacobian, rhs)

    monkeypatch.setattr(newton, "linear_solve", counted)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    result = namespace["result"]
    # started from the problem's own iterate: one linear solve per
    # iteration, four in all, each on a fresh Jacobian but the last, which
    # ends the solve on the kept factors of the third
    assert result.converged and result.iterations == 4
    assert len(calls) == 4
    assert len({id(jacobian) for jacobian in calls}) == 3
    assert calls[-1] is calls[-2]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"True {result.iterations}"
    assert printed[1].startswith("1.23297")
