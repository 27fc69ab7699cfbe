"""The benchmark's workloads: one pass over each in-process pool, and the first two
``cli-cold`` rotations; every op's checks hold.

``bench/workloads.py`` is imported as it is, read-only; a failed check here is
an op the benchmark would count as failed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import bellri
import bellri.cli

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """``bench/workloads.py`` as a module, leaving no bytecode cache under ``bench/``."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("name", ["table-triage", "scenario-audit"])
def test_one_pass_over_the_pool_fails_no_check(name):
    wl = _workloads().WORKLOADS[name](bellri, bellri.cli, ROOT, 0)
    failed = {}
    for k in range(wl.pool_size):
        bad = wl.run_op(k)
        if bad:
            failed[k, wl.kind(k)] = bad
    assert failed == {}


def test_cli_cold_first_two_rotations_fail_no_check():
    # 16 fresh ``python -m bellri.cli`` children: every verb on an ensemble table,
    # then on a Pearson table with moments, plus the scenario verbs and pr-demo
    wl = _workloads().WORKLOADS["cli-cold"](bellri, bellri.cli, ROOT, 0)
    assert [next(iter(json.loads(t))) for t in wl.tables[:2]] == ["ensemble", "pearson"]
    assert "means" in json.loads(wl.tables[1])
    failed = {}
    for k in range(2 * len(wl.verbs)):
        bad = wl.run_op(k)
        if bad:
            failed[k, wl.kind(k)] = bad
    assert failed == {}
