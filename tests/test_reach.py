"""The reachability gate's contract (``tools/reach.py``) on a fixture package.

A surface script runs under ``reach.run`` and calls the
fixture's functions directly, from a thread, from a child interpreter and
from a forked child that ends in ``os._exit``.  ``check`` must then report
exactly the function that only a test file calls, pass once an allowlist
entry names it with a reason, and never ask about a dunder.
"""

from __future__ import annotations

import sys
import textwrap

import pytest

from tools import reach

CORE = '''
import os
import subprocess
import sys
import threading


class Box:
    def __init__(self, n):
        self.n = n

    def __repr__(self):
        return f"Box({self.n})"

    @staticmethod
    def twice(n):
        return 2 * n


def used(n):
    def inner(m):
        return m + 1

    return Box(inner(n)).n


def in_thread():
    return 1


def from_child():
    return 2


def in_fork():
    return 3


def only_tests(n):
    return n * 2


def surface():
    used(Box.twice(1))
    thread = threading.Thread(target=in_thread)
    thread.start()
    thread.join()
    subprocess.run([sys.executable, "-c", "import fixpkg.core; fixpkg.core.from_child()"], check=True)
    pid = os.fork()
    if pid == 0:
        in_fork()
        os._exit(0)
    os.waitpid(pid, 0)
'''

TEST_FILE = """
from fixpkg.core import only_tests


def test_only_tests():
    assert only_tests(2) == 4
"""


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    """``(package root, record)`` after one recorded surface run."""
    base = tmp_path_factory.mktemp("reach")
    package = base / "src" / "fixpkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "core.py").write_text(CORE)
    (base / "tests").mkdir()
    (base / "tests" / "test_core.py").write_text(TEST_FILE)
    record = base / "surface.txt"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(base / "src"))
        command = [sys.executable, "-c", "import fixpkg.core; fixpkg.core.surface()"]
        assert reach.run(record, package, command) == 0
    return package, record


def check(fixture, tmp_path, allowlist: str = ""):
    package, record = fixture
    path = tmp_path / "allow.txt"
    path.write_text(textwrap.dedent(allowlist))
    return reach.check([record], package, path)


def test_a_function_only_a_test_calls_is_reported(fixture, tmp_path, capsys):
    assert check(fixture, tmp_path) == 1
    gaps = [line for line in capsys.readouterr().out.splitlines() if "reached by no surface" in line]
    assert len(gaps) == 1 and gaps[0].endswith(": only_tests is reached by no surface")


def test_threads_children_and_forks_are_recorded(fixture):
    _, record = fixture
    names = {line.rsplit(":", 1)[1] for line in record.read_text().splitlines()}
    assert {"surface", "used", "inner", "twice", "in_thread", "from_child", "in_fork"} <= names
    assert "only_tests" not in names


def test_an_allowlist_entry_with_its_reason_passes(fixture, tmp_path, capsys):
    assert check(fixture, tmp_path, "fixpkg/core.py:only_tests -- test_core.py is its caller\n") == 0
    assert "0 unreached" in capsys.readouterr().out


def test_a_dunder_is_exempt(fixture, tmp_path, capsys):
    """``Box.__repr__`` is called by nothing and never reported."""
    check(fixture, tmp_path)
    assert "__repr__" not in capsys.readouterr().out


def test_a_stale_or_unexplained_entry_fails(fixture, tmp_path, capsys):
    stale = "fixpkg/core.py:only_tests -- tests\nfixpkg/core.py:used -- reached, so stale\n"
    assert check(fixture, tmp_path, stale) == 1
    assert "fixpkg/core.py:used names no unreached function" in capsys.readouterr().out
    with pytest.raises(SystemExit, match="needs ' -- <reason>'"):
        check(fixture, tmp_path, "fixpkg/core.py:only_tests\n")


def test_every_repo_allowlist_entry_names_a_function():
    """A typo in ``tools/reach_allowlist.txt`` fails here, without records."""
    functions = reach.defined(reach.DEFAULT_ROOT)
    for target, reason in reach.read_allowlist(reach.ALLOWLIST):
        assert reason, target
        assert any(reach.covers(target, rel, q) for (rel, _, _), q in functions.items()), target
