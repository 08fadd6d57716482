"""Every subcommand, in both formats, and every exit-1/2/3 path of the CLI:
exit code, stdout and stderr must match `tests/cli_golden.json` byte for byte.

The cases and the runner are in `tests/cli_cases.py`; running that file as
a script writes the same results for any interpreter.
"""

import json
from pathlib import Path

import pytest

from cli_cases import CASES, run_case

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


def test_every_case_has_one_golden_result():
    ids = [case_id for case_id, _, _ in CASES]
    assert len(set(ids)) == len(ids) and set(ids) == set(GOLDEN)


@pytest.mark.parametrize("case_id, argv, env", CASES, ids=[case[0] for case in CASES])
def test_cli_golden(tmp_path, case_id, argv, env):
    assert run_case(argv, env, tmp_path) == GOLDEN[case_id]
