"""What the benchmark in perfbench/ reads from the program.

Each workload is built and run for one round in this process by the
benchmark's own worker code, which imports proxdeblur from src/, and its
outputs are checked by the benchmark's own checks.  A renamed function,
field or option that the worker relies on fails here rather than as a
failed benchmark run.  The rounds after the first build no operator plan,
which is what the workloads' timings assume.
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))  # the benchmark imports its modules by bare name

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_one_round_of_each_workload_succeeds_and_passes_its_checks(tmp_path, name):
    seed = 0
    args = argparse.Namespace(workload=name, seed=seed, dir=str(tmp_path), seconds=0, trace=0)
    worker.run(args)  # at least one round, whatever the seconds
    res = json.loads((tmp_path / "result.json").read_text())
    assert res["attempted"] > 0 and res["failed"] == 0
    assert all(res["last_ok"])
    psnr_db, errors = run.CHECKS[name](seed, res["outputs"], res["last_ok"])
    assert errors == []
    assert psnr_db > 0
    worker.setup(args)  # the max_iters = 0 call that setup_s times


@pytest.mark.parametrize("name", workloads.NAMES)
def test_a_second_round_of_each_workload_builds_no_plan(monkeypatch, tmp_path, name):
    import checks

    pd, _ = worker.import_program()
    one_round, _ = worker.BUILDERS[name](pd, workloads, checks, tmp_path, 0)
    assert all(one_round())
    calls = []

    def counted(fn_name, fn):
        def wrapper(*args, **kwargs):
            calls.append(fn_name)
            return fn(*args, **kwargs)
        return wrapper

    for module, fn_name in ((pd.linop, "spectral_decompose"), (pd.linop, "kronecker_decompose"),
                            (pd.linop, "_lanczos_lambda_max"), (pd.weighting, "build_filter")):
        monkeypatch.setattr(module, fn_name, counted(fn_name, getattr(module, fn_name)))
    assert all(one_round())
    assert calls == []
