"""Every subcommand, in both formats, and every exit-1/2/3 path of the CLI:
exit code, stdout and stderr must match `tests/cli_golden.json` byte for byte.

The cases and the runner are in `tests/cli_cases.py`; running that file as
a script writes the same results for any interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cli_cases import CASES, FILES, run_case

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


def test_every_case_has_one_golden_result():
    ids = [case_id for case_id, _, _ in CASES]
    assert len(set(ids)) == len(ids) and set(ids) == set(GOLDEN)


@pytest.mark.parametrize("case_id, argv, env", CASES, ids=[case[0] for case in CASES])
def test_cli_golden(tmp_path, case_id, argv, env):
    assert run_case(argv, env, tmp_path) == GOLDEN[case_id]


@pytest.mark.parametrize("case_id", ["chi-json", "chi-malformed", "todd-coxeter-exceeded-json",
                                     "triangle-rep-fail-json"])
def test_main_exit_code_in_a_subprocess(tmp_path, case_id):
    # `main`, the entry point of the `orbicurve` command, exits with the
    # code that `run` returns: 0, 1, 2 and 3 here
    argv = next(argv for cid, argv, _ in CASES if cid == case_id)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items() if key != "ORBICURVE_MAX_COSETS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "orbicurve.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert [done.returncode, done.stdout, done.stderr] == GOLDEN[case_id]
