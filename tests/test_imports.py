"""numpy stays off the import path: the oracle and verify names load on
first use, and the commands that need no array run without numpy."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polarsolve
from polarsolve import oracle, verify

SRC = str(Path(polarsolve.__file__).resolve().parents[1])


def run_python(*args):
    """A child interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("module", ["polarsolve", "polarsolve.cli"])
def test_importing_the_package_loads_no_numpy(module):
    proc = run_python("-c", f"import sys, {module}; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_neither_statistics_nor_json():
    # every command pays its imports: fmean pulled in statistics (and with it
    # fractions and decimal), and only --config reads JSON
    script = (
        "import sys; bare = set(sys.modules)\n"
        "import polarsolve.cli\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "polarsolve.cli" in added
    assert not added & {"statistics", "json"}


def test_a_solve_from_the_command_line_loads_no_numpy():
    proc = run_python("-X", "importtime", "-m", "polarsolve", "solve", "--w", "1.5")
    assert proc.returncode == 0, proc.stderr
    assert "certified: true" in proc.stdout
    assert "polarsolve.cli" in proc.stderr  # the import log is there
    assert not re.search(r"\|\s*numpy$", proc.stderr, re.M)


def test_the_commands_above_the_bound_run_with_numpy_blocked(capsys):
    # byte-identical stdout with `import numpy` failing in the child
    runs = [["solve", "--w", "1.5"], ["sweep", "--w-steps", "13"],
            ["sweep", "--mode", "asymmetric", "--w-steps", "13"], ["locus", "--mu-i-steps", "11"]]
    script = (
        "import sys; sys.modules['numpy'] = None\n"
        "from polarsolve.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    for argv in runs:
        assert polarsolve.cli.main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_the_lazy_names_are_their_modules_current_attributes(monkeypatch):
    assert polarsolve.grid_best_response is oracle.grid_best_response
    assert polarsolve.run_checks is verify.run_checks
    assert polarsolve.CheckResult is verify.CheckResult
    # never bound here, so a patch of the module (as a tracer makes) shows
    # through and is gone once undone
    assert "grid_best_response" not in vars(polarsolve)
    monkeypatch.setattr(oracle, "grid_best_response", stand_in := lambda *args: 0.25)
    assert polarsolve.grid_best_response is stand_in
    monkeypatch.undo()
    assert polarsolve.grid_best_response is oracle.grid_best_response
    assert verify.DEFAULT_SEED == polarsolve.cli.DEFAULT_SEED == 1729


def test_every_public_name_is_listed_and_star_imported():
    assert set(polarsolve.__all__) <= set(dir(polarsolve))
    namespace = {}
    exec("from polarsolve import *", namespace)
    assert set(polarsolve.__all__) <= set(namespace)
    assert namespace["peak_scan"] is oracle.peak_scan


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'grid_best_responses'"):
        polarsolve.grid_best_responses
