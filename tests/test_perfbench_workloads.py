"""Each benchmark workload checks its own outputs (perfbench/workloads.py,
OpResult.checks): the fit's epoch count, test sqrt-PEHE against the value
recorded in perfbench/reference.json, the checkpoint round-trip and every
sweep trial. A benchmark run counts an operation whose check fails as
failed; this guard runs case 0 of each workload so such a change fails here
first."""

import contextlib
import json

import pytest
from perfbench_module import PERFBENCH, load_perfbench

workloads = load_perfbench("workloads")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_case_0_passes_its_own_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    op = workload.run(0, str(tmp_path), REFERENCE[name][0], lambda _name: contextlib.nullcontext())
    assert len(op.checks) == workload.n_checks
    assert all(op.checks.values()), op.checks
