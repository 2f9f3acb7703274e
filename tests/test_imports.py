"""What each hellcert invocation imports, and what it leaves for its exit,
each checked in a fresh interpreter.

The test session has imported every module long before these run, so only a
new process shows what one invocation loads and what runs at its exit.
"""

import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hellcert
from hellcert.cli import main
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
    """The finished ``python -c code args``, with this checkout's sources first on the path and ``environ`` set;
    its stdout and stderr are text."""
    env = {**os.environ, **environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done


def run_fresh(args, work: Path):
    """Exit code and loaded hellcert modules (without the prefix) of one command line in a new interpreter."""
    shutil.copytree(INPUTS, work)
    code, modules = json.loads(fresh(_CHILD, *args, "--output", "report.json", cwd=work).stdout.splitlines()[-1])
    return code, {m.removeprefix("hellcert.") for m in modules}


def test_importing_the_cli_loads_only_io_and_rng():
    modules = json.loads(fresh("import json, sys, hellcert.cli; "
                               "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hellcert'))))").stdout)
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
SMALL_CASES = sorted(case for case in CASES if not case.startswith("synthetic-compare-"))


@pytest.mark.parametrize("case", SMALL_CASES)
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


# Runs hellcert.cli.main on its arguments with every ResourceWarning shown, then
# collects the cyclic garbage whose finalizers main's exit hook leaves unrun,
# and prints the exit code.
_CLOSING_CHILD = """
import gc, sys, warnings
warnings.simplefilter("always", ResourceWarning)
from hellcert.cli import main
code = main(sys.argv[1:])
gc.collect()
print(code)
"""

# An input error: the third line of the loss file is no number.
_BAD_LINE = ["certify", "bad_line.csv", "--rho", "0.05"]


@pytest.mark.parametrize("case", [*SMALL_CASES, "certify-bad-line"])
def test_each_command_closes_what_it_opens(tmp_path, case):
    """At exit, main's hook freezes the heap, so no finalizer of cyclic garbage runs then: every file a command
    opens must be closed by the time main returns, on success and on an input error alike."""
    work = tmp_path / case
    shutil.copytree(INPUTS, work)
    (work / "bad_line.csv").write_text("loss\n0.2\nnot-a-number\n0.7\n", encoding="utf-8")
    done = fresh(_CLOSING_CHILD, *CASES.get(case, _BAD_LINE), "--output", "report.json", cwd=work)
    want = (GOLDEN / case / "exit_code").read_text(encoding="utf-8") if case in CASES else "1\n"
    assert done.stdout.splitlines()[-1] + "\n" == want
    assert "ResourceWarning" not in done.stderr, done.stderr


def test_main_freezes_the_heap_once_and_only_at_exit(tmp_path):
    """atexit runs its hooks last in, first out, so main's hook, registered after the probe, runs before it.
    The child counts the runs of gc.freeze, which main looks up when it registers the hook."""
    shutil.copytree(INPUTS, tmp_path / "work")
    done = fresh("""
import atexit, gc
freeze, runs = gc.freeze, []
gc.freeze = lambda: runs.append(None) or freeze()
atexit.register(lambda: print("at exit: runs", len(runs), "frozen", gc.get_freeze_count() > 0))
from hellcert.cli import main
for _ in range(2):
    assert main(["oracle", "inst.json", "--output", "report.json"]) == 0
print("on return: frozen", gc.get_freeze_count() > 0)
""", cwd=tmp_path / "work")
    assert done.stdout.splitlines() == ["on return: frozen False", "at exit: runs 1 frozen True"]


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    """A caller that goes on after main finds nothing frozen and the collector as enabled as before."""
    shutil.copy(INPUTS / "inst.json", tmp_path)
    argv = ["oracle", str(tmp_path / "inst.json"), "--output", str(tmp_path / "report.json")]
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(argv) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before
