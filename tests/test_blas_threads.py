"""One BLAS thread per process unless the caller sets a thread count.

Each check runs in a fresh interpreter, because the setting only takes
effect when ``sdforms`` is imported before numpy.
"""

import os
import subprocess
import sys

import pytest

import sdforms

SRC = os.path.dirname(os.path.dirname(sdforms.__file__))
#: CPUs this process may run on, which bounds OpenBLAS's thread count
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)


def _env(**blas):
    """The test environment without BLAS thread variables, plus ``blas``."""
    env = {k: v for k, v in os.environ.items() if k not in sdforms._BLAS_THREAD_VARS}
    return {**env, "PYTHONPATH": SRC, **blas}


def _python(code, env):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout.split()


THREADS = ("import os, sdforms, numpy; "
           "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_import_starts_one_thread():
    assert _python(THREADS, _env()) == ["1", "1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_lazy_name_loading_numpy_starts_one_thread():
    # numpy is first loaded by a public name the package serves on access,
    # after the pin; a product big enough for OpenBLAS to split still runs
    # on the one thread
    code = ("import os, sys, sdforms; assert 'numpy' not in sys.modules; "
            "sdforms.make_basis(2); import numpy; a = numpy.ones((256, 256)); a @ a; "
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    assert _python(code, _env()) == ["1", "1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.skipif(CPUS < 2, reason="needs 2 CPUs")
def test_caller_thread_setting_wins():
    assert _python(THREADS, _env(OPENBLAS_NUM_THREADS="2")) == ["2", "2"]


def test_host_numpy_is_left_alone():
    code = "import os, numpy, sdforms; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _python(code, _env()) == ["None"]


def test_stdout_does_not_depend_on_the_thread_default():
    # one process per setting, run side by side; each prints both reports
    code = ("from sdforms.cli import dispatch; dispatch(['spectrum', '--degree', '10']); "
            "dispatch(['verify', 'hodge', '--degree', '6'])")
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE)
             for env in (_env(), _env(OPENBLAS_NUM_THREADS="1"))]
    outs = [p.communicate(timeout=300)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outs[0] == outs[1]
