"""Coverage for the matrix suite metadata and remaining misc surfaces."""

import numpy as np
import pytest

from repro.comm import PERLMUTTER_GPU, Simulator, CORI_HASWELL
from repro.core import SpTRSVSolver
from repro.matrices import PAPER_MATRICES, get_matrix, make_rhs
from repro.numfact import solve_residual


def test_suite_pde_classes():
    """The class labels drive the expected replication behavior."""
    classes = {name: spec.pde_class for name, spec in PAPER_MATRICES.items()}
    assert classes["s2D9pt2048"] == "2D"
    assert classes["nlpkkt80"] == "3D"
    assert classes["Ga19As19H42"] == "dense-ish"
    assert set(classes.values()) <= {"2D", "3D", "dense-ish"}


def test_suite_spec_build_matches_get_matrix():
    spec = PAPER_MATRICES["ldoor"]
    A1 = spec.build("tiny")
    A2 = get_matrix("ldoor", "tiny")
    assert (A1 != A2).nnz == 0


def test_suite_paper_metadata_consistency():
    for spec in PAPER_MATRICES.values():
        # The recorded paper density must match n and nnz(LU).
        derived = spec.paper_nnz_lu / spec.paper_n ** 2
        assert derived == pytest.approx(spec.paper_density, rel=0.5), spec.name


def test_gpu3d_z_phase_times_recorded():
    """The GPU path's synthesized report carries all three phases with
    consistent totals (fp + xy + z <= makespan per rank is NOT required —
    waits overlap — but each phase must be present and non-negative)."""
    A = get_matrix("s2D9pt2048", "tiny")
    s = SpTRSVSolver(A, 2, 1, 4, max_supernode=8, machine=PERLMUTTER_GPU,
                     symbolic_mode="fixed")
    b = make_rhs(A.shape[0], 2)
    out = s.solve(b, device="gpu")
    rep = out.report
    for phase in ("l", "z", "u"):
        t = rep.per_rank(phase=phase)
        assert (t >= 0).all()
    assert rep.per_rank(phase="z").max() > 0  # pz=4: allreduce ran
    # NVSHMEM message stats were attributed.
    assert rep.message_count("xy") > 0
    assert solve_residual(A, out.x, b) < 1e-9


def test_gpu3d_start_offsets_respected():
    """U-phase clocks start after each GPU's allreduce completion."""
    from repro.core.sptrsv3d_new import build_new3d_setup
    from repro.gpu import solve_new3d_gpu

    A = get_matrix("s2D9pt2048", "tiny")
    s = SpTRSVSolver(A, 1, 1, 2, max_supernode=8, machine=PERLMUTTER_GPU,
                     symbolic_mode="fixed")
    setup = s.setup("new3d", "binary")
    b = make_rhs(A.shape[0], 1)[s.perm]
    res = solve_new3d_gpu(setup, PERLMUTTER_GPU, b, 1)
    for r in range(2):
        z_end = res.sim.marks[r].get("z_end", 0.0)
        assert res.sim.clocks[r] >= z_end
        assert res.sim.marks[r]["u_end"] == pytest.approx(res.sim.clocks[r])


def test_cli_tune_gpu(capsys):
    from repro.cli import main

    rc = main(["tune", "--matrix", "s2D9pt2048", "--scale", "tiny",
               "--ranks", "4", "--device", "gpu",
               "--machine", "perlmutter-gpu", "--symbolic", "fixed",
               "--max-supernode", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "best: --grid" in out
    # GPU constraint: every listed config has Py = 1.
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0].isdigit():
            assert parts[1] == "1"


def test_simulator_single_rank_no_machine_effects():
    """A rank with no ops finishes at clock zero."""
    def fn(ctx):
        return "done"
        yield  # pragma: no cover

    res = Simulator(3, CORI_HASWELL).run(fn)
    assert (res.clocks == 0).all()
    assert res.results == ["done"] * 3


def test_solver_report_message_bytes_positive():
    A = get_matrix("nlpkkt80", "tiny")
    s = SpTRSVSolver(A, 2, 2, 2, max_supernode=8, symbolic_mode="fixed")
    out = s.solve(make_rhs(A.shape[0], 1))
    assert out.report.message_bytes("xy") > 0
    assert out.report.message_bytes("z") > 0
    assert out.report.message_bytes() >= (out.report.message_bytes("xy")
                                          + out.report.message_bytes("z"))
