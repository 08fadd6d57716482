#!/usr/bin/env python3
"""Print every line of src/orbicurve that the tier-1 suite never runs.

    PYTHONPATH=src python3.12 scripts/unrun_lines.py [pytest arguments]

Python 3.12 or later, standard library and pytest only.  `sys.monitoring`
reports each line the first time it runs (the callback then disables it)
while pytest runs the suite in this process.  A line counts when a code
object compiled from its module lists it in `co_lines()`.  Lines that run
only in a child process, such as `cli.main` behind the CLI tests'
subprocesses, are listed as well.  It only reports: it exits 0 whatever
it finds.
"""

import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbicurve"


def code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}  # 0: a module's RESUME
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


def main(argv) -> int:
    if sys.version_info < (3, 12):
        sys.exit("unrun_lines.py needs Python 3.12 or later, for sys.monitoring")
    import pytest  # before monitoring starts, so that only the suite is traced

    mon = sys.monitoring
    ran = set()

    def line(code, number):
        ran.add((code.co_filename, number))
        return mon.DISABLE

    mon.use_tool_id(mon.COVERAGE_ID, "unrun_lines")
    mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, line)
    mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        mon.set_events(mon.COVERAGE_ID, 0)
        mon.free_tool_id(mon.COVERAGE_ID)
    ran = {(str(Path(name).resolve()), number) for name, number in ran}
    print(f"\nLines of src/orbicurve that no test ran in-process (pytest exit {status}; "
          "lines reached only in a subprocess, such as the CLI's, are listed too):")
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        unrun = sorted(n for n in code_lines(code) if (str(path), n) not in ran)
        if unrun:
            print(f"  {path.name}: {', '.join(map(str, unrun))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
