"""A pytest plugin that lists the lines of `src/rulerverse` that no test executes.

Standard library only: a `sys.settrace` line tracer, installed when the plugin
loads (so module bodies count) and again before each test, because a test or a
library that sets its own tracer (hypothesis does) would otherwise end the
count early.  Threads started during a test are traced too; subprocesses are
not.  Run it with

    PYTHONPATH=src:tests python -m pytest -q -p unexecuted_lines tests/

The report ends the terminal summary, and is appended to the file that
`GITHUB_STEP_SUMMARY` names when that is set.  It is a report, never a failure.
"""
from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rulerverse"

_executed: set[tuple[str, int]] = set()
_ours: dict[str, bool] = {}  # co_filename -> is it a file under SRC?


def _is_ours(filename: str) -> bool:
    ours = _ours.get(filename)
    if ours is None:
        ours = _ours[filename] = Path(filename).resolve().parent == SRC
    return ours


def _trace_lines(frame, event, arg):
    if event == "line":
        _executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    if not _is_ours(frame.f_code.co_filename):
        return None
    _executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _install() -> None:
    sys.settrace(_trace_calls)
    threading.settrace(_trace_calls)


def _code_lines(code) -> set[int]:
    """The lines that `code` and the code objects nested in it can execute."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def unexecuted() -> dict[str, list[int]]:
    """Per module file name, the executable lines that no traced frame reached."""
    seen: dict[str, set[int]] = {}
    for filename, line in _executed:
        seen.setdefault(str(Path(filename).resolve()), set()).add(line)
    report = {}
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed = sorted(_code_lines(code) - seen.get(str(path.resolve()), set()))
        if missed:
            report[path.name] = missed
    return report


_install()


def pytest_runtest_setup(item) -> None:
    _install()


def pytest_terminal_summary(terminalreporter) -> None:
    sys.settrace(None)
    threading.settrace(None)
    report = unexecuted()
    lines = [f"{name}: {len(missed)} lines: {_ranges(missed)}" for name, missed in report.items()]
    total = sum(len(missed) for missed in report.values())
    terminalreporter.write_sep("-", f"src/rulerverse lines that no test executed: {total}")
    for line in lines:
        terminalreporter.write_line(line)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as f:
            f.write(f"src/rulerverse lines that tier-1 never executes: {total}\n\n```\n")
            f.write("".join(line + "\n" for line in lines) + "```\n")
