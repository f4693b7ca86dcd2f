"""tools/faults.py: one warm pass of a perfbench workload, counted in its own process."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]


def _faults(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "tools" / "faults.py"), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_one_warm_pass_of_the_oscillator_sweep():
    res = _faults("oscillator-sweep", "0", "1")
    assert res.returncode == 0, res.stderr
    assert re.fullmatch(r"oscillator-sweep seed 0: 1 warm passes, median \d+ minor faults, "
                        r"median \d+\.\d{4} s wall\n", res.stdout)


def test_unknown_workload_and_bad_counts_are_refused():
    assert "known: oscillator-sweep" in _faults("nonesuch", "0", "1").stderr
    for args in (("oscillator-sweep", "0", "0"), ("oscillator-sweep", "-1", "1"), ()):
        res = _faults(*args)
        assert res.returncode == 1 and "WORKLOAD SEED PASSES" in res.stderr
