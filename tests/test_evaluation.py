"""Aggregate policy-evaluation tests: the reduced linear system, lifting,
gap reports, and the interpolation-residual value bound."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg as sla
from scipy import sparse

import _oracles as orc
from momentagg import chain, control, evaluation
from momentagg import (
    MarkovRewardProcess,
    RowStochasticMatrix,
    StateLattice,
    aggregate_value,
    build_grid,
    build_scheme,
    evaluate,
    exact_value,
    grid_from_axes,
    interpolation_bound_check,
    interpolation_residuals,
    lifted_chain,
)
from momentagg.benchmarks import (
    build_hospital,
    build_jrp,
    build_reflecting_rw,
    build_simple_rw,
    hospital_2ward,
    hospital_3ward,
    jrp_small,
)
from momentagg.chain import NumericalError
from momentagg.control import aggregated_policy_iteration


def _random_mrp(seed, lower, upper, **kw):
    states, P, c, alpha = orc.random_lattice_chain(seed, lower, upper, **kw)
    lat = StateLattice(lower, upper)
    return MarkovRewardProcess(lat, RowStochasticMatrix(P), c, alpha)


def _scheme(mrp, s=0.45):
    return build_scheme(build_grid(mrp.lattice, s))


def test_identity_scheme_recovers_exact_value():
    mrp = _random_mrp(40, (0, 0), (2, 2), max_jump=2)
    scheme = _scheme(mrp)  # small span: every state is representative
    assert scheme.grid.size == mrp.lattice.size
    R = aggregate_value(mrp, scheme)
    assert_allclose(R, exact_value(mrp), atol=1e-9)


def test_absorbing_walk_reduced_values():
    n, alpha = 20, 0.9
    mrp = build_simple_rw(n, alpha=alpha)
    scheme = build_scheme(grid_from_axes(mrp.lattice, [np.array([0, n])]))
    R = aggregate_value(mrp, scheme)
    assert_allclose(R, [0.0, n / (1.0 - alpha)], atol=1e-8)
    report = evaluate(mrp, scheme, compute_exact=True)
    assert report.max_rel_gap <= 1e-8
    assert np.max(np.abs(report.V_agg - report.V_exact)) <= 1e-8


def test_aggregate_value_matches_dense_oracle():
    mrp = _random_mrp(41, (-4, 0), (4, 7), max_jump=3)
    scheme = _scheme(mrp)
    R = aggregate_value(mrp, scheme)
    expect = orc.dense_aggregate_value(
        mrp.P.toarray(),
        mrp.cost,
        mrp.discount,
        scheme.grid.rep_indices,
        scheme.G.toarray(),
    )
    assert_allclose(R, expect, atol=1e-9)


def test_lifted_value_interpolates_reduced_one():
    # U V~ = R: the lifted value agrees with R on representative states
    mrp = _random_mrp(42, (0,), (30,), max_jump=2)
    scheme = _scheme(mrp)
    report = evaluate(mrp, scheme)
    assert_allclose(report.V_agg[scheme.grid.rep_indices], report.R, atol=1e-10)


def test_lifted_value_solves_sister_chain():
    mrp = _random_mrp(43, (0, 0), (6, 6), max_jump=2)
    scheme = _scheme(mrp)
    report = evaluate(mrp, scheme)
    sister = lifted_chain(mrp, scheme)
    # V~ is the fixed point of the sister Bellman operator
    assert_allclose(
        mrp.cost + mrp.discount * sister.apply(report.V_agg),
        report.V_agg,
        atol=1e-9,
    )


def test_evaluate_report_contents():
    mrp = _random_mrp(44, (0,), (25,), max_jump=2)
    report = evaluate(mrp, _scheme(mrp), compute_exact=True)
    assert report.abs_gap.shape == (mrp.lattice.size,)
    assert report.mean_rel_gap <= report.max_rel_gap
    assert report.mean_rel_gap == pytest.approx(float(np.mean(report.rel_gap)))
    assert {"preprocess", "solve", "lift", "exact"} <= set(report.runtimes_ms)
    # passing the exact value directly must give the same gaps
    again = evaluate(mrp, _scheme(mrp), V_exact=report.V_exact)
    assert again.max_rel_gap == pytest.approx(report.max_rel_gap, rel=1e-9)


def test_evaluate_without_exact_leaves_gaps_unset():
    mrp = _random_mrp(45, (0,), (12,), max_jump=2)
    report = evaluate(mrp, _scheme(mrp))
    assert report.V_exact is None
    assert report.abs_gap is None and report.rel_gap is None
    assert report.max_rel_gap is None


def test_interpolation_residuals_vanish_at_representatives():
    mrp = _random_mrp(46, (0, 0), (8, 8), max_jump=2)
    scheme = _scheme(mrp)
    V = np.random.default_rng(3).random(mrp.lattice.size)
    per_state, sup = interpolation_residuals(V, scheme)
    assert per_state.shape == (mrp.lattice.size,)
    assert_allclose(per_state[scheme.grid.rep_indices], 0.0, atol=1e-12)
    assert sup == pytest.approx(np.max(np.abs(per_state)))


def test_interpolation_residuals_zero_for_interpolated_vector():
    mrp = _random_mrp(47, (0,), (18,), max_jump=2)
    scheme = _scheme(mrp)
    R = np.random.default_rng(4).random(scheme.grid.size)
    _, sup = interpolation_residuals(scheme.G.apply(R), scheme)
    assert sup <= 1e-12


def test_bound_check_identity_scheme_degenerate():
    mrp = _random_mrp(48, (0, 0), (2, 2), max_jump=2)
    check = interpolation_bound_check(mrp, _scheme(mrp))
    assert check.lhs == pytest.approx(0.0, abs=1e-9)
    assert check.rhs == pytest.approx(0.0, abs=1e-9)
    assert check.slack >= -1e-8


def test_bound_check_absorbing_walk():
    mrp = build_simple_rw(20, alpha=0.9)
    scheme = build_scheme(grid_from_axes(mrp.lattice, [np.array([0, 20])]))
    check = interpolation_bound_check(mrp, scheme)
    # the aggregate value is exact here, so the left side collapses
    assert check.lhs <= 1e-8
    assert check.rhs >= -1e-12
    assert check.slack >= -1e-8


@pytest.mark.parametrize("seed", range(6))
def test_bound_check_random_chains(seed):
    mrp = _random_mrp(100 + seed, (-5, 0), (5, 6), max_jump=3)
    check = interpolation_bound_check(mrp, _scheme(mrp))
    assert check.slack >= -1e-8


def test_bound_check_accepts_precomputed_values():
    mrp = _random_mrp(49, (0,), (20,), max_jump=2)
    scheme = _scheme(mrp)
    V = exact_value(mrp)
    report = evaluate(mrp, scheme)
    a = interpolation_bound_check(mrp, scheme)
    b = interpolation_bound_check(mrp, scheme, V=V, V_tilde=report.V_agg)
    assert b.lhs == pytest.approx(a.lhs, rel=1e-6, abs=1e-9)
    assert b.rhs == pytest.approx(a.rhs, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# the aggregate solve: solve_discounted on the sparse PbarG, certified
# ---------------------------------------------------------------------------

def _dense_oracle(PbarG, c_bar, alpha):
    """The aggregate solve on the densified operand, by LAPACK; a callable
    operand is densified column by column."""
    L = len(c_bar)
    if callable(PbarG):
        M = np.column_stack([PbarG(e) for e in np.eye(L)])
    else:
        M = PbarG.toarray()
    return sla.solve(np.eye(L) - alpha * M, c_bar)


def _certified_error(c_bar, alpha):
    """Largest |R - R*|_inf the residual certificate allows.

    R - R* = (I - alpha PbarG)^-1 r with |r|_inf <= 1e-10 (1 + |c_bar|_inf),
    and PbarG is row-stochastic, so |(I - alpha PbarG)^-1|_inf <= 1/(1 - alpha).
    """
    return 1e-10 * (1.0 + float(np.max(np.abs(c_bar)))) / (1.0 - alpha)


MODELS = {
    "jrp_small": lambda: build_jrp(jrp_small()),
    "hospital2": lambda: build_hospital(hospital_2ward()),
    "hospital3": lambda: build_hospital(hospital_3ward()),
}


def _aggregate_case(name):
    """(PbarG, c_bar, alpha) of an instance: MDPs under action 0 at every
    representative state, the walk under its own kernel."""
    if name == "reflecting_rw":
        mrp = build_reflecting_rw(2000, seed=5)
        return (*evaluation._aggregate_system(mrp, _scheme(mrp)), mrp.discount)
    mdp = MODELS[name]()
    scheme = _scheme(mdp)
    reps = np.asarray(scheme.grid.rep_indices)
    zero = np.zeros(len(reps), dtype=np.int64)
    # 100 kernel rows at a time: hospital3's 1,000 hold 10.4M entries
    PbarG = sparse.vstack([
        mdp.kernel_rows_at(reps[s : s + 100], zero[s : s + 100]).csr @ scheme.G.csr
        for s in range(0, len(reps), 100)
    ], format="csr")
    return PbarG, mdp.costs_at(reps, zero), mdp.discount


# ``kind`` names how dense each PbarG is (jrp_small and the walk 1-2 %,
# the hospitals 16-63 %); one solver serves both
@pytest.mark.parametrize(
    "name, kind",
    [
        ("jrp_small", "sparse"),
        ("hospital2", "dense"),
        ("hospital3", "dense"),
        ("reflecting_rw", "sparse"),
    ],
)
def test_aggregate_solve_matches_dense_oracle(name, kind):
    PbarG, c_bar, alpha = _aggregate_case(name)
    assert sparse.issparse(PbarG)
    R = evaluation._solve(PbarG, c_bar, alpha)
    err = float(np.max(np.abs(R - _dense_oracle(PbarG, c_bar, alpha))))
    assert err <= _certified_error(c_bar, alpha), f"{kind} PbarG of {name}: error {err:.3e}"


def _traced_peak(PbarG, c_bar, alpha):
    tracemalloc.start()
    try:
        evaluation._solve(PbarG, c_bar, alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sparse_path_allocates_no_dense_square():
    mrp = build_reflecting_rw(20_000, seed=6)
    PbarG, c_bar = evaluation._aggregate_system(mrp, _scheme(mrp))
    L = PbarG.shape[0]
    peak = _traced_peak(PbarG, c_bar, mrp.discount)
    assert peak < 8 * L * L / 10, f"peak {peak} bytes against {8 * L * L} for L x L"


def test_dense_pbarg_solve_allocates_no_dense_square():
    # hospital3's PbarG is 47 % dense at the start policy, yet stays sparse
    PbarG, c_bar, alpha = _aggregate_case("hospital3")
    L = PbarG.shape[0]
    assert PbarG.nnz > 0.4 * L * L
    peak = _traced_peak(PbarG, c_bar, alpha)
    assert peak < 8 * L * L / 10, f"peak {peak} bytes against {8 * L * L} for L x L"


def test_solve_discounted_enforces_the_aggregate_certificate(monkeypatch):
    # a Bi-CGSTAB iterate whose residual lies between the 1e-10 certificate
    # and 1e-9 must be carried on by Richardson until it meets the former
    PbarG, c_bar, alpha = _aggregate_case("reflecting_rw")
    scale = 1.0 + float(np.max(np.abs(c_bar)))
    R_star = _dense_oracle(PbarG, c_bar, alpha)
    # (I - alpha PbarG) 1 = (1 - alpha) 1, so a constant shift t moves the
    # residual by (1 - alpha) t everywhere
    R = R_star + 5e-10 * scale / (1.0 - alpha)
    res = float(np.max(np.abs(R - alpha * (PbarG @ R) - c_bar)))
    assert 1e-10 * scale < res < 1e-9 * scale
    monkeypatch.setattr(chain, "_krylov", lambda *args: R)
    V = chain.solve_discounted(PbarG, c_bar, alpha, tol=1e-10)
    assert float(np.max(np.abs(V - alpha * (PbarG @ V) - c_bar))) <= 1e-10 * scale
    assert float(np.max(np.abs(V - R_star))) <= _certified_error(c_bar, alpha)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # Bi-CGSTAB overflows
def test_singular_aggregate_raises():
    # row 0 of I - alpha PbarG vanishes exactly (alpha * 2 == 1): no solver
    # stage converges, and the solve must give up within its caps
    L, alpha = 50, 0.5
    M = 0.5 * np.eye(L)
    M[0, 0] = 2.0
    M = sparse.csr_matrix(M)
    products = []

    def counted(v):
        products.append(1)
        return M @ v

    with pytest.raises(NumericalError, match="stalled"):
        evaluation._solve(counted, np.ones(L), alpha)
    # Bi-CGSTAB makes two products per iteration; Richardson starts at a
    # residual of at most 1 (that of c / (1 - alpha)) and needs this many
    # steps to reach the target 1e-10 (1 + 1) at alpha 0.5
    richardson = int(np.ceil(np.log(2e-10) / np.log(alpha))) + 50
    assert len(products) <= 2 * chain.KRYLOV_MAXITER + richardson + 8


@pytest.mark.parametrize("which", ["jrp_small", "hospital2", "hospital3"])
def test_aggregated_pi_policy_unchanged_by_sparse_solve(which, monkeypatch):
    mdp = MODELS[which]()
    scheme = _scheme(mdp)
    systems = []

    def solve(PbarG, c_bar, alpha):
        systems.append(c_bar)
        return evaluation._solve(PbarG, c_bar, alpha)

    monkeypatch.setattr(control, "_solve_aggregate", solve)
    got = aggregated_policy_iteration(mdp, scheme)
    monkeypatch.setattr(control, "_solve_aggregate", _dense_oracle)
    expect = aggregated_policy_iteration(mdp, scheme)
    assert got.iterations == expect.iterations
    assert got.reps_changed == expect.reps_changed
    assert np.array_equal(got.policy, expect.policy)
    # both runs took the same policies, so they ended on the same system
    err = float(np.max(np.abs(got.R - expect.R)))
    assert err <= _certified_error(systems[-1], mdp.discount)
