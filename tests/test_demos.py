"""Every script under demos/ runs to a clean exit as ``__main__``."""

import runpy
from pathlib import Path

import pytest

from uwloc.experiments import CSV_COLUMNS

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def run_demo(path):
    """Run ``path`` as a script; a SystemExit must carry a success code."""
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), f"{path.name} exited with {exc.code!r}"


def test_every_demo_is_collected():
    assert [path.name for path in DEMOS] == [
        "absorption_curve.py", "bounds_vs_noise.py", "sigma_sweep.py", "single_fix.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_exits_cleanly(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_demo(path)
    assert capsys.readouterr().out
    if path.name == "sigma_sweep.py":
        with open(tmp_path / "sigma_sweep.csv", encoding="utf-8") as handle:
            assert handle.readline() == ",".join(CSV_COLUMNS) + "\n"
