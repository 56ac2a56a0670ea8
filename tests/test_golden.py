"""run_solver against the library goldens written by tests/make_golden.py,
and the coverage of the scenario goldens that test_cli.py compares against.

On the numpy and scipy versions that wrote the goldens every objective and
the final iterate's hash must match exactly.  Another build may round
differently (its FFT, its SIMD loops), so there the hash is not compared
and the objectives must agree to a relative 1e-9, which still catches any
change to the algorithm.
"""

import json

import numpy as np
import pytest
import scipy

from make_golden import (
    CASES,
    KERNELS,
    PATH,
    SCENARIO_DIR,
    SCENARIO_PATH,
    SCENARIOS,
    run_case,
    scenario_mismatch,
)

GOLDEN = json.loads(PATH.read_text())
SAME_BUILD = (GOLDEN["numpy"], GOLDEN["scipy"]) == (np.__version__, scipy.__version__)


def test_goldens_cover_every_case_and_route():
    assert sorted(GOLDEN["cases"]) == sorted(CASES)
    assert KERNELS["dct"].is_doubly_symmetric()
    assert not KERNELS["separable"].is_doubly_symmetric()
    assert KERNELS["separable"].factors is not None
    assert not KERNELS["2d"].is_doubly_symmetric() and KERNELS["2d"].factors is None


@pytest.mark.parametrize("name", CASES)
def test_run_solver_reproduces_golden(name):
    want = GOLDEN["cases"][name]
    objectives, digest = run_case(name)
    ref = np.array([float(s) for s in want["objectives"]])
    got = np.array(objectives)
    assert got.shape == ref.shape, f"{name}: {got.size} records, golden has {ref.size}"
    rel = float((np.abs(got - ref) / np.abs(ref)).max()) if ref.size else 0.0
    builds = (f"golden numpy {GOLDEN['numpy']} scipy {GOLDEN['scipy']}, "
              f"running numpy {np.__version__} scipy {scipy.__version__}")
    if SAME_BUILD:
        assert ["%.17g" % f for f in objectives] == want["objectives"], (
            f"{name}: largest relative objective difference {rel:.3e} ({builds})")
        assert digest == want["x_sha256"], f"{name}: final iterate differs ({builds})"
    else:
        assert rel <= 1e-9, f"{name}: largest relative objective difference {rel:.3e} ({builds})"


def test_scenario_goldens_cover_every_committed_scenario():
    committed = sorted(p.stem for p in SCENARIO_DIR.glob("*.cfg"))
    assert sorted(SCENARIOS) == committed
    assert sorted(json.loads(SCENARIO_PATH.read_text())["scenarios"]) == committed


def test_scenario_mismatch_names_the_file_and_its_first_differing_row():
    want = json.loads(SCENARIO_PATH.read_text())["scenarios"]["psweep_cameraman"]
    got = json.loads(json.dumps(want))
    rows = got["files"]["psweep_cameraman_n8.csv"]
    rows[3] = rows[3].split(",")[0] + ",0.5"
    assert scenario_mismatch(want, want, same_build=True) is None
    for same_build in (True, False):
        assert scenario_mismatch(want, got, same_build) == (
            f"psweep_cameraman_n8.csv: first differing row 3: {rows[3]!r},"
            f" golden {want['files']['psweep_cameraman_n8.csv'][3]!r}")
