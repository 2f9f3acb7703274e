"""What each hellcert invocation imports, each checked in a fresh interpreter.

The test session has imported every module long before these run, so only a
new process shows what one invocation loads.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hellcert
from test_golden import CASES, GOLDEN, INPUTS

SRC = Path(hellcert.__file__).resolve().parents[1]

# Runs hellcert.cli.main on its arguments, then prints the exit code and the
# hellcert modules loaded, as JSON.
_CHILD = """
import json, sys
from hellcert.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("hellcert."))]))
"""


def fresh(code, *args, cwd=None, **environ):
    """stdout of ``python -c code args`` with this checkout's sources first on the path and ``environ`` set."""
    env = {**os.environ, **environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_fresh(args, work: Path):
    """Exit code and loaded hellcert modules (without the prefix) of one command line in a new interpreter."""
    shutil.copytree(INPUTS, work)
    code, modules = json.loads(fresh(_CHILD, *args, "--output", "report.json", cwd=work).splitlines()[-1])
    return code, {m.removeprefix("hellcert.") for m in modules}


def test_importing_the_cli_loads_only_io_and_rng():
    modules = json.loads(fresh("import json, sys, hellcert.cli; "
                               "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hellcert'))))"))
    assert modules == ["hellcert", "hellcert.cli", "hellcert.io", "hellcert.rng"]


# Modules each subcommand must not import.
NOT_IMPORTED = {
    "certify": {"losses", "shifts", "oracle", "experiments", "network", "synthetic"},
    "certify-accuracy": {"shifts", "oracle", "experiments", "network", "synthetic"},
    "certify-auc": {"oracle", "experiments", "network", "synthetic"},
    "oracle": {"experiments", "losses", "network", "synthetic"},
    "label-shift": {"oracle", "network", "synthetic"},
    "mixture": {"oracle", "network", "synthetic"},
    "synthetic-compare": {"oracle", "experiments", "shifts"},
}


# The two default-size sweeps are left out: the small sweep runs the same code.
@pytest.mark.parametrize("case", sorted(case for case in CASES if not case.startswith("synthetic-compare-")))
def test_each_command_imports_only_what_it_runs(tmp_path, case):
    """Each golden command line, every branch of each flow, reaches its golden exit code in a new interpreter:
    main binds every module its handler uses, and no module on the command's list."""
    code, modules = run_fresh(CASES[case], tmp_path / case)
    assert f"{code}\n" == (GOLDEN / case / "exit_code").read_text(encoding="utf-8")
    assert modules & NOT_IMPORTED[CASES[case][0]] == set()


def test_a_wrapper_set_before_main_is_the_one_the_handler_calls(tmp_path):
    """The benchmark's tracer wraps CLI names in a new interpreter before main has bound them."""
    shutil.copytree(INPUTS, tmp_path / "work")
    fresh("""
import hellcert.cli as cli
calls = []
real = cli.EmpiricalSample
cli.EmpiricalSample = lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs)
assert cli.main(["certify", "losses.csv", "--rho", "0.05", "--output", "report.json"]) == 0
assert len(calls) == 1, calls
""", cwd=tmp_path / "work")
