"""Benchmark-suite hooks.

pytest captures stdout, so the tables and figures the benchmarks regenerate
would normally only be visible as ``*.txt`` files in the harness's results
directory (``benchmarks/results/``, or ``benchmarks/results/smoke/`` under
``REPRO_BENCH_SMOKE``).  This hook replays every regenerated artefact at the
end of the terminal summary so that ``pytest benchmarks/ --benchmark-only |
tee bench_output.txt`` leaves a fully self-contained record of the
reproduced evaluation.
"""

from __future__ import annotations

import os

from _harness import RESULTS_DIR


def pytest_terminal_summary(terminalreporter, exitstatus, config):  # noqa: D103
    if not os.path.isdir(RESULTS_DIR):
        return
    terminalreporter.section("regenerated tables and figures")
    for filename in sorted(os.listdir(RESULTS_DIR)):
        if not filename.endswith(".txt"):
            continue
        path = os.path.join(RESULTS_DIR, filename)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                content = handle.read().rstrip()
        except OSError:
            continue
        terminalreporter.write_line("")
        terminalreporter.write_line(f"----- {filename} -----")
        for line in content.splitlines():
            terminalreporter.write_line(line)
