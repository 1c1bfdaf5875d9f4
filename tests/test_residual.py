import dataclasses
import importlib
import platform
import re
import tracemalloc

import numpy as np
import pytest

from schroedsym import coords, jets, residual, solutions, suites
from schroedsym.coords import FamilySpec
from schroedsym.errors import DomainError, RangeError, ShapeError
from schroedsym.group import GroupElement, Mat2
from schroedsym.multiplier import IntertwinerParams
from schroedsym.residual import (
    GridSpec,
    PullbackFn,
    coefficient_residual,
    grid_residual,
    residual_arrays,
    lift_frame,
    transformed,
    verify_intertwining,
    verify_transformed_solution,
)
from schroedsym.sampling import (
    random_admissible_element,
    random_disk_element,
    random_element,
    random_sl2r,
)
from schroedsym.solutions import (
    FormulaFn,
    constant_one,
    f_pair,
    g_functions,
    gaussian_free,
    phi_pair,
    plane_wave_nls,
    power_static,
)

RNG = np.random.default_rng(314)

LIN = FamilySpec.linear(k=0.7, alpha=0.3, beta=0.9)
QUAD = FamilySpec.quadratic(k=0.8, alpha=0.4, omega=0.6)
DISK = FamilySpec.quadratic(k=0.8j, alpha=0.4, omega=0.6)
FREE = FamilySpec.free(0.7)
GRID = GridSpec((-0.4, 0.6), (-1.2, 1.2))
GRID_9_11 = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=9, nx=11)


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec((0.0, 1.0), (0.0, 1.0), nt=2)
    with pytest.raises(DomainError):
        GridSpec((1.0, 0.0), (0.0, 1.0))


def test_residual_arrays_at_points_of_known_solutions():
    # the solutions' residuals are the registry's; a non-solution has a
    # visibly nonzero one
    bad = FormulaFn(lambda tj, xj: jets.exp(tj + xj))
    assert abs(residual_arrays(bad, LIN, 0.2, [0.4])[0]) > 1e-3


def test_potential_is_the_spec_potential_summed_over_coordinates():
    # bit for bit the closed forms, summed coordinate by coordinate
    x1, x2 = np.array([0.3, -1.1, 2.0]), np.array([0.7, 0.4, -0.2])
    assert residual.potential(FamilySpec.free(0.7, n=2), [x1, x2]) == 0.0
    np.testing.assert_array_equal(residual.potential(LIN, [x1]), 0.3 + 0.9 * x1)
    np.testing.assert_array_equal(residual.potential(QUAD, [x1]), 0.4 + 0.6 ** 2 * x1 ** 2)
    invq = FamilySpec.inverse_quadratic(0.7, 2.0)
    np.testing.assert_array_equal(residual.potential(invq, [x1]), 2.0 / x1 ** 2)
    ndim = FamilySpec.ndim_linear(0.7, 0.3, 0.9, 2)
    np.testing.assert_array_equal(residual.potential(ndim, [x1, x2]),
                                  (0.3 + 0.9 * x1) + (0.3 + 0.9 * x2))


def test_a_slipped_linear_potential_fails_the_residual_and_the_evolution_identity(monkeypatch):
    # FamilySpec.potential is the one statement of the potential: the
    # residual and the evolution operator read it
    names = ("residual.self_residuals", "liealg.evolution_identity_linear")
    cfg = suites.RunConfig(seed=7)
    assert all(suites.run_named_check(name, cfg).passed for name in names)
    stated = FamilySpec.potential.fget

    def slipped(spec):
        v = stated(spec)
        if spec.family == coords.LINEAR:
            v[1] *= 1.0 + 1e-9
        return v

    monkeypatch.setattr(FamilySpec, "potential", property(slipped))
    for name in names:
        assert not suites.run_named_check(name, cfg).passed, name


def test_richardson_stencils_match_the_analytic_residual():
    # fd_order reads only the observed order, which a slipped stencil literal
    # keeps near 2; the Richardson combination of the two steps must land on
    # the analytic residual
    _, f2 = f_pair(LIN)
    t, xs = GridSpec((0.4, 1.4), (-1.0, 1.0)).points(1)
    exact, _ = residual_arrays(f2, LIN, t, xs)
    psi, first, second = residual.stencil(f2, t, xs, 0, [(0, 1e-3), (1, 1e-3)])
    fd_h, fd_half = first.value[0] - LIN.k * (second.value[1] - residual.potential(LIN, xs) * psi.value)
    assert np.max(np.abs((4.0 * fd_half - fd_h) / 3.0 - exact)) < 1e-7


@pytest.mark.parametrize("case", ["f2", "g3", "power", "nls"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_a_stencil_is_its_point_sets_evaluated_one_by_one(case, order):
    # one evaluation of the stacked point sets, bit for bit the jets at each
    # (a pullback, a Gaussian, a formula and a two-coordinate formula), on
    # the broadcast grid axes of fd_order: the jet at the points, and each
    # difference the quotient of the jets at its moved points
    nls = FamilySpec.nls2d(-0.7j, coupling=1.3)
    fn, grid = {
        "f2": (f_pair(LIN)[1], GridSpec((0.4, 1.4), (-1.0, 1.0), nt=5, nx=6)),
        "g3": (g_functions(QUAD, 0.5)[2], GRID_9_11),
        "power": (power_static(2.0, 2.0), GridSpec((-0.4, 0.6), (0.4, 1.8), nt=5, nx=6)),
        "nls": (plane_wave_nls(1.1, (0.4, -0.7), nls), GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=4, nx=5)),
    }[case]
    t, xs = grid.points(fn.ndim)
    steps = [(0, 1e-3)] + [(1 + j, 2e-3) for j in range(fn.ndim)]
    centre, first, second = residual.stencil(fn, t, xs, order, steps)

    def alone(var, h):
        moved = [a + h if v == var else a for v, a in enumerate((t, *xs))]
        return fn.jet(moved[0], moved[1:], order).block

    def same(batch, quotient):
        assert np.array_equal(batch, np.broadcast_to(quotient, batch.shape))

    psi = alone(0, 0.0)
    same(centre.block, psi)
    assert first.support == second.support == centre.support
    for i, (var, step) in enumerate(steps):
        for s, h in enumerate((step, step / 2.0)):
            up, down = alone(var, h), alone(var, -h)
            same(first.block[:, i, s], (up - down) / (2.0 * h))
            same(second.block[:, i, s], (up - 2.0 * psi + down) / h ** 2)


def test_centred_differences_are_exact_on_a_quadratic_in_t_and_a_cubic_in_x():
    # the first difference is exact on a quadratic and the second on a
    # cubic, so at both steps each is the jet's partial up to round-off
    fn = FormulaFn(lambda t, x: (1.0 + 2.0 * t - 3.0 * t * t) * (0.5 - x + 2.0 * x * x + 1.5 * x ** 3))
    t, x = np.array([0.3, -0.7, 1.1]), np.array([0.4, -1.2, 0.9])
    psi, first, second = residual.stencil(fn, t, [x], 0, [(0, 0.1), (1, 0.1)])
    j = fn.jet(t, x, 2)
    for s in (0, 1):
        assert np.all(abs(first.value[0, s] - j.partial((1, 0))) <= 1e-9 * abs(psi.value))
        assert np.all(abs(second.value[1, s] - j.partial((0, 2))) <= 1e-9 * abs(psi.value))


def test_a_slipped_second_difference_fails_both_stencil_checks(slip_literal):
    # the one rule's second difference is the literal of fd_order and of
    # partials_fd alike: slipped by 1+1e-9, it fails both at both seeds
    names = ("residual.fd_order", "solutions.partials_fd")
    cfgs = [suites.RunConfig(seed=seed) for seed in (7, 11)]
    assert all(suites.run_named_check(name, cfg).passed for name in names for cfg in cfgs)
    slip_literal(residual, "stencil", "up - 2.0 * block", "2.0")
    for name in names:
        for cfg in cfgs:
            assert not suites.run_named_check(name, cfg).passed, (name, cfg.seed)


def test_grid_residual_raises_off_the_domain():
    # the jet is the only domain guard: no grid point is dropped
    spec = FamilySpec.inverse_quadratic(0.7, 2.0)
    with pytest.raises(DomainError, match="needs x > 0.0"):
        grid_residual(power_static(2.0, 2.0), spec, GridSpec((-0.3, 0.3), (-0.5, 1.5)))


def test_a_function_of_another_dimension_than_its_family_raises():
    # a verification's dimension is its family's spec.n: the one-coordinate
    # f1 does not solve the two-coordinate equation
    with pytest.raises(DomainError, match="1 space coordinates under a family of 2"):
        grid_residual(f_pair(LIN)[0], FamilySpec.ndim_linear(0.7, 0.3, 0.9, 2), GRID)


def _verify_at_points(fn, l, spec, grid):
    t, xs = grid.points(spec.n)
    return residual_arrays(fn, spec, t, xs)


@pytest.mark.parametrize("verify", [verify_transformed_solution, verify_intertwining, _verify_at_points],
                         ids=["transformed", "intertwining", "residual_arrays"])
@pytest.mark.parametrize("fn, spec", [
    (gaussian_free(0.7, t0=2.0), FamilySpec.ndim_linear(0.7, 0.3, 0.9, 2)),
    (plane_wave_nls(1.1, (0.4, -0.7), FamilySpec.nls2d(-0.7j, coupling=1.3)), FamilySpec.free(-0.7j)),
], ids=["one_under_two", "nls_under_free"])
def test_each_verification_guards_the_dimension(verify, fn, spec):
    with pytest.raises(DomainError, match="space coordinates under a family of"):
        verify(fn, random_element(np.random.default_rng(4)), spec, GRID)


def test_a_residual_check_on_a_dropped_grid_fails(monkeypatch):
    # t down to -5 takes part of the grid out of the Gaussian's domain t > -2
    monkeypatch.setattr(suites, "T_RANGE", (-5.0, 0.6))
    result = suites.run_named_check("residual.lift_residuals", suites.RunConfig(seed=3))
    assert not result.passed and np.isnan(result.value)
    assert result.error == "DomainError: needs t > -2.0"
    # a batch raises when any element leaves the domain
    invq, half_out = FamilySpec.inverse_quadratic(0.7, 2.0), GridSpec((-0.3, 0.3), (-0.5, 1.5))
    l = GroupElement(random_sl2r(np.random.default_rng(2), 0.3, size=4))
    with pytest.raises(DomainError):
        verify_transformed_solution(power_static(2.0, 2.0), l, invq, half_out)
    assert grid_residual(f_pair(LIN)[0], LIN, GRID).max_rel < 1e-11


@pytest.mark.parametrize("fn, spec", [
    (constant_one(), FREE),
    (power_static(2.0, 2.0), FamilySpec.inverse_quadratic(0.7, 2.0)),
    (FormulaFn(lambda tj, xj: 0.0 * tj), FREE),
], ids=["constant", "no_t", "no_x"])
def test_grid_residual_counts_every_point_of_a_lower_rank_residual(fn, spec):
    # a residual that lacks an axis still covers the whole grid
    rep = grid_residual(fn, spec, GridSpec((-0.4, 0.6), (0.3, 1.8)))
    assert rep.n_points == 14 * 14
    assert rep.max_rel < 1e-11


def _flat_mesh(grid, ndim):
    ts = np.linspace(*grid.t_range, grid.nt)
    xs = np.linspace(*grid.x_range, grid.nx)
    mesh = np.meshgrid(ts, *(xs + 0.37 * i for i in range(ndim)), indexing="ij")
    return mesh[0].ravel(), [m.ravel() for m in mesh[1:]]


def test_grid_points_are_broadcastable_axes():
    grid = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=9, nx=11)
    t, xs = grid.points(1)
    assert t.shape == (9, 1) and [x.shape for x in xs] == [(1, 11)]
    t, xs = grid.points(2)
    assert t.shape == (9, 1, 1)
    assert [x.shape for x in xs] == [(1, 11, 1), (1, 1, 11)]
    for ndim in (1, 2):
        t, xs = grid.points(ndim)
        flat_t, flat_xs = _flat_mesh(grid, ndim)
        full = [a.ravel() for a in np.broadcast_arrays(t, *xs)]
        assert all(np.array_equal(a, b) for a, b in zip(full, [flat_t] + flat_xs))


def test_grid_points_are_cached_read_only_arrays():
    t, xs = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=9, nx=11).points(2)
    again, xs_again = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=9, nx=11).points(2)
    assert again is t and all(a is b for a, b in zip(xs_again, xs))
    for axis in (t, *xs):
        with pytest.raises(ValueError):
            axis[...] = 0.0
    listed = GridSpec([-0.4, 0.6], [-1.2, 1.2], nt=9, nx=11)
    lt, lxs = listed.points(2)
    assert np.array_equal(lt, t) and all(np.array_equal(a, b) for a, b in zip(lxs, xs))
    rep = grid_residual(FormulaFn(lambda tj, xj: jets.exp(tj + xj)), FamilySpec.free(1.0), listed)
    assert rep.n_points == 9 * 11 and rep.max_rel < 1e-12


def test_time_only_frame_work_is_done_once_per_time_value(monkeypatch):
    sizes, lifted = [], []
    frame = residual.frame

    def recorded(l, spec, t):
        sizes.append(np.size(jets.value_of(t)))
        return frame(l, spec, t)

    f1 = f_pair(LIN)[0]
    lift = f1.frame
    monkeypatch.setattr(f1, "frame", lambda t: lifted.append(np.size(jets.value_of(t))) or lift(t))
    monkeypatch.setattr(residual, "frame", recorded)
    grid = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=9, nx=11)
    nls = FamilySpec.nls2d(-0.7j, coupling=1.3)
    for budget in (10 ** 9, 30):  # the 9 x 11 grid in one tile, then in four
        monkeypatch.setattr(residual, "TILE_POINTS", budget)
        sizes.clear(), lifted.clear()
        rng = np.random.default_rng(3)
        verify_transformed_solution(f1, random_element(rng), LIN, grid)
        verify_transformed_solution(plane_wave_nls(1.1, (0.4, -0.7), nls), random_element(rng), nls, grid)
        verify_intertwining(FormulaFn(lambda tj, xj: jets.exp(tj + xj)), random_element(rng), LIN, grid)
        # one frame evaluation per verification, each on the 9 time values:
        # the intertwining check's right-hand side reads its pullback's
        # frame, and the lift nested in f1 is evaluated at t' once
        assert sizes == [9] * 3 and lifted == [9]


def test_each_function_on_the_grid_is_seeded_once(monkeypatch, bench_workloads):
    # a pullback evaluates its base on the frame's jets, so a verification
    # seeds t and each x once per function whose jet it takes on the grid:
    # the pullback, and for the intertwining check also the base at the
    # mapped points
    counts, label = {}, [None]
    variable = jets.Jet.variable.__func__

    def counted(cls, *args):
        counts[label[0]] = counts.get(label[0], 0) + 1
        return variable(cls, *args)

    monkeypatch.setattr(jets.Jet, "variable", classmethod(counted))
    rng, cases = np.random.default_rng(5), bench_workloads.residual_cases(14, 14)
    for case in cases:
        label[0] = case.label
        case.run(rng)
    # a Gaussian base folds into the frame (Frame.then), so its pullback
    # forms no jet on the grid and seeds t only
    folded = {"transformed_linear", "transformed_quadratic", "transformed_disk",
              "lift_f1", "lift_f2_one", "lift_f2_gaussian", "lift_K0_unit", "lift_K0"}
    expected = {c.label: 1 if c.label.removeprefix("residual.") in folded
                else 3 if c.label.endswith("_nls") else 4 if "intertwining" in c.label else 2
                for c in cases}
    assert len(cases) == 13 and counts == expected


def _transformed_cases(rng):
    nls = FamilySpec.nls2d(-0.7j, coupling=1.3)
    grid_x_pos = GridSpec((-0.4, 0.6), (0.4, 1.8), nt=9, nx=11)
    grid = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=9, nx=11)
    invq = FamilySpec.inverse_quadratic(0.7, 2.0)
    return [
        (transformed(f_pair(LIN)[0], random_element(rng), LIN), LIN, grid),
        (transformed(power_static(2.0, 2.0), GroupElement(random_sl2r(rng, 0.3)), invq),
         invq, grid_x_pos),
        (transformed(g_functions(QUAD, 0.5)[1], random_admissible_element(rng), QUAD), QUAD, grid),
        (transformed(g_functions(DISK, 0.4)[2], random_disk_element(rng), DISK), DISK, grid),
        (transformed(plane_wave_nls(1.1, (0.4, -0.7), nls), random_element(rng), nls), nls, grid),
        (PullbackFn(gaussian_free(QUAD.k, t0=2.0),
                    lift_frame("K0", QUAD, IntertwinerParams(0.8, 0.3, 0.2))), QUAD, grid),
    ]


@pytest.mark.parametrize("case", range(6), ids=[
    "linear", "inverse_quadratic", "quadratic", "disk", "nls", "K0"])
def test_residual_on_axes_equals_residual_on_flat_mesh(case):
    fn, spec, grid = _transformed_cases(np.random.default_rng(11))[case]
    t, xs = grid.points(spec.n)
    flat_t, flat_xs = _flat_mesh(grid, spec.n)
    shape = np.broadcast_shapes(t.shape, *(x.shape for x in xs))
    assert shape == (9,) + (11,) * spec.n
    for on_axes, on_mesh in zip(residual_arrays(fn, spec, t, xs),
                                residual_arrays(fn, spec, flat_t, flat_xs)):
        assert np.array_equal(np.broadcast_to(on_axes, shape).ravel(), on_mesh)


def _graded_cases(rng):
    expfn = FormulaFn(lambda tj, xj: jets.exp(tj + xj))
    late = GridSpec((0.15, 1.0), (-1.2, 1.2), nt=9, nx=11)
    grid = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=9, nx=11)
    return _transformed_cases(rng) + [
        (PullbackFn(gaussian_free(0.7, t0=2.0), lift_frame("f1", LIN)), LIN, grid),
        (PullbackFn(gaussian_free(0.7, t0=8.0), lift_frame("f2", LIN)), LIN, late),
        (transformed(expfn, random_element(rng), LIN), LIN, grid),
    ]


def _residual(spec, psi_t, laplacian, psi, xs):
    """The residual of psi from its own partials."""
    return residual._less_cubic(spec, residual._braces(spec, psi_t, laplacian, psi, xs), psi)


def _residual_from_jet(j, spec, xs):
    """The reference residual: the one jet of psi, for a pullback the
    multiplier's jet times the base's, read off its rows."""
    n = j.nvars - 1
    lap = sum(j.partial(tuple(2 * (v == i) for v in range(1 + n))) for i in range(1, 1 + n))
    return _residual(spec, j.partial((1,) + (0,) * n), lap, j.value, xs)


GRADED_IDS = ["linear", "inverse_quadratic", "quadratic", "disk", "nls", "K0",
              "f1", "f2", "intertwining_linear"]
FOLDED_IDS = ["linear", "quadratic", "disk", "K0", "f1", "f2"]  # the Gaussian bases


@pytest.mark.parametrize("size", [None, 3], ids=["one", "batch"])
def test_nls_pullback_factors_each_span_one_space_axis(size):
    nls = FamilySpec.nls2d(-0.7j, coupling=1.3)
    fn = transformed(plane_wave_nls(1.1, (0.4, -0.7), nls), random_element(RNG, size=size), nls)
    batch = () if size is None else (size,)
    t, xs = GRID_9_11.points(2)
    tj, xjs = fn._seed(t, xs, 2)
    shapes = [f.block.shape[1:] for f in fn.at_time(tj)(xjs)]
    assert shapes == [batch + (9, 11, 1), batch + (9, 1, 11)]


def test_nls_pullback_matches_the_product_of_the_whole_factors():
    # the pairs (b1 K1)(b2 K2) against (b1 b2)(K1 K2), the order before pairing
    nls = FamilySpec.nls2d(-0.7j, coupling=1.3)
    base, l = plane_wave_nls(1.1, (0.4, -0.7), nls), random_element(RNG, size=3)
    t, xs = GRID_9_11.points(2)
    tj, xjs = base._seed(t, xs, 2)
    fr = coords.frame(residual._batched(l, 3)[1], nls, tj)
    b1, b2 = base.at_time(fr.tp)(fr.space(xjs))
    k1, k2 = fr.multiplier_factors(xjs)
    want, got = (b1 * b2) * (k1 * k2), transformed(base, l, nls).jet_at(tj, xjs)
    assert set(got.support) == set(want.support)
    for alpha in want.support:
        w = want.coefficient(alpha)
        assert np.max(np.abs(got.coefficient(alpha) - w)) <= 1e-14 * np.max(np.abs(w))


@pytest.mark.parametrize("case", [i for i, name in enumerate(GRADED_IDS) if name != "nls"],
                         ids=[name for name in GRADED_IDS if name != "nls"])
def test_one_coordinate_pullback_is_the_base_times_the_multiplier(case):
    # bit for bit the product before pullbacks paired factors: the innermost
    # base's jet times the composed frame's multiplier.  A Gaussian
    # innermost base folds into the composed frame (beta = 1), so the jet
    # is that frame's multiplier
    fn, spec, grid = _graded_cases(np.random.default_rng(5))[case]
    t, xs = grid.points(1)
    tj, xjs = fn._seed(t, xs[0], 2)
    fr, space = fn.split_at(tj)
    assert (space is None) == (GRADED_IDS[case] in FOLDED_IDS)
    if space is None:
        want = fr.multiplier(xjs)
    else:
        fr = fn.frame(tj)
        want = fn.base.jet_at(fr.tp, fr.space(xjs)) * fr.multiplier(xjs)
    got = fn.jet_at(tj, xjs)
    assert got.support == want.support and np.array_equal(got.block, want.block)


def _nested_jet(fn, tj, xjs):
    """The jet of ``fn`` with no frame composed: a pullback's base's jet at
    the mapped jets times its own multiplier, down to a formula's jet."""
    if isinstance(fn, PullbackFn):
        fr = fn.frame(tj)
        return _nested_jet(fn.base, fr.tp, fr.space(xjs)) * fr.multiplier(xjs)
    return fn.formula(fn._variable(tj), *xjs)


def _composed_cases(rng):
    """Every Gaussian case of the graded set, and a formula under a
    transformed lift, whose composed map takes x to the formula's x''."""
    graded = dict(zip(GRADED_IDS, _graded_cases(rng)))
    late = GridSpec((0.15, 1.0), (-1.2, 1.2), nt=9, nx=11)
    expfn = FormulaFn(lambda tj, xj: jets.exp(tj + xj))
    lifted = PullbackFn(expfn, lift_frame("f2", LIN))
    return [graded[name] for name in FOLDED_IDS] + [
        (transformed(lifted, random_element(rng, scale=0.1, translation=0.3), LIN), LIN, late)]


@pytest.mark.parametrize("case", range(len(FOLDED_IDS) + 1), ids=FOLDED_IDS + ["formula_in_lift"])
def test_a_composed_pullback_matches_the_nested_product(case):
    # the composed frame (Frame.then) against the product of each level's
    # base and multiplier, to the bound of the NLS pairing's reference
    fn, spec, grid = _composed_cases(np.random.default_rng(5))[case]
    t, xs = grid.points(1)
    tj, xjs = fn._seed(t, xs[0], 2)
    want, got = _nested_jet(fn, tj, xjs), fn.jet_at(tj, xjs)
    assert set(got.support) == set(want.support)
    for alpha in want.support:
        w = want.coefficient(alpha)
        assert np.max(np.abs(got.coefficient(alpha) - w)) <= 1e-14 * np.max(np.abs(w))


@pytest.mark.parametrize("wrap", ["itself", "transformed", "lifted", "transformed_lift"])
def test_gaussian_bases_have_no_space_step(wrap):
    # a Gaussian is its exponent: it, its transforms and its lifts fold into
    # one frame, and the residual forms no jet of the base on the grid
    tj = jets.Jet.variable(np.linspace(0.5, 0.6, 5)[:, None], 0, 2, 2)
    rng = np.random.default_rng(8)
    lifts = {LIN: lift_frame("f1", LIN), QUAD: lift_frame("K0", QUAD, IntertwinerParams(0.8, 0.3, 0.2)),
             DISK: lift_frame("K0", DISK, IntertwinerParams(0.8, 0.3, 0.2))}
    samplers = {LIN: random_element, QUAD: random_admissible_element, DISK: random_disk_element}
    gaussians = [(gaussian_free(0.7, t0=2.0), LIN), (constant_one(), LIN),
                 *((fn, LIN) for fn in f_pair(LIN) + phi_pair(LIN)),
                 *((fn, QUAD) for fn in g_functions(QUAD, 0.5)),
                 *((fn, DISK) for fn in g_functions(DISK, 0.4))]
    for fn, spec in gaussians:
        if wrap in ("transformed", "transformed_lift"):
            fn = transformed(fn, samplers[spec](rng, scale=0.1), spec)  # f2's t' > 0
        if wrap in ("lifted", "transformed_lift"):
            fn = PullbackFn(fn, lifts[spec])
        fr, space = fn.split_at(tj)
        assert fr is not None and space is None


@pytest.mark.parametrize("case", range(9), ids=GRADED_IDS)
def test_order_2_jets_hold_only_what_the_residual_reads(case):
    fn, spec, grid = _graded_cases(np.random.default_rng(5))[case]
    t, xs = grid.points(spec.n)
    keys = set(fn.jet(t, xs[0] if spec.n == 1 else tuple(xs), 2).coef)
    if spec.n == 1:
        read = {(1, 0), (0, 2)}
        allowed = {(0, 0), (1, 0), (0, 1), (0, 2)}
    else:
        read = {(1, 0, 0), (0, 2, 0), (0, 0, 2)}
        allowed = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)}
    assert read <= keys <= allowed


@pytest.mark.parametrize("case", range(9), ids=GRADED_IDS)
def test_order_2_residual_matches_partials_of_order_4_jets(case):
    fn, spec, grid = _graded_cases(np.random.default_rng(5))[case]
    t, xs = grid.points(spec.n)
    resid, psi = residual_arrays(fn, spec, t, xs)
    j4 = fn.jet(t, xs[0] if spec.n == 1 else tuple(xs), 4)
    psi_t = j4.partial((1,) + (0,) * spec.n)
    lap = sum(j4.partial(tuple(2 * (j == i) for j in range(spec.n + 1))) for i in range(1, spec.n + 1))
    ref = _residual(spec, psi_t, lap, j4.value, xs)
    scale = np.abs(psi_t).max() + abs(spec.k) * np.abs(lap).max()
    assert np.abs(psi - j4.value).max() <= 1e-13 * np.abs(j4.value).max()
    assert np.abs(resid - ref).max() <= 1e-13 * scale


REAL_IDS = ["linear", "inverse_quadratic", "quadratic", "K0", "f1", "f2",
            "intertwining_linear", "intertwining_quadratic", "intertwining_x2"]


def _real_cases(rng):
    """The order-2 pullbacks of real data: every real case of the graded
    set, and intertwining with exp(t + x) and x^2."""
    expfn = FormulaFn(lambda tj, xj: jets.exp(tj + xj))
    x2fn = FormulaFn(lambda tj, xj: xj * xj)
    grid = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=9, nx=11)
    grid_x_pos = GridSpec((-0.4, 0.6), (0.4, 1.8), nt=9, nx=11)
    invq0 = FamilySpec.inverse_quadratic(0.7, 0.0)
    graded = dict(zip(GRADED_IDS, _graded_cases(rng)))
    return [graded[name] for name in REAL_IDS[:7]] + [
        (transformed(expfn, random_admissible_element(rng), QUAD), QUAD, grid),
        (transformed(x2fn, GroupElement(random_sl2r(rng)), invq0), invq0, grid_x_pos),
    ]


@pytest.mark.parametrize("case", range(9), ids=REAL_IDS)
def test_jets_of_real_data_stay_real_and_match_the_complex_path(case):
    fn, spec, grid = _real_cases(np.random.default_rng(5))[case]
    t, xs = grid.points(spec.n)
    j = fn.jet(t, xs[0], 2)
    assert all(np.asarray(v).dtype == np.float64 for v in j.coef.values())
    # t + 0j drives every array through complex arithmetic
    jc = fn.jet(t + 0j, xs[0], 2)
    assert set(jc.coef) == set(j.coef)
    assert all(np.asarray(v).dtype == np.complex128 for v in jc.coef.values())
    for k in j.coef:
        np.testing.assert_allclose(jc.coef[k], j.coef[k], rtol=1e-13,
                                   atol=1e-13 * np.abs(jc.coef[k]).max())
    resid, psi = residual_arrays(fn, spec, t, xs)
    resid_c, psi_c = residual_arrays(fn, spec, t + 0j, xs)
    assert resid.dtype == psi.dtype == np.float64
    scale = np.abs(j.partial((1, 0))).max() + abs(spec.k) * np.abs(j.partial((0, 2))).max()
    np.testing.assert_allclose(psi_c, psi, rtol=1e-13)
    assert np.abs(resid_c - resid).max() <= 1e-13 * scale


@pytest.mark.parametrize("case", [3, 4], ids=["disk", "nls"])
def test_jets_of_imaginary_k_families_are_complex(case):
    fn, spec, grid = _graded_cases(np.random.default_rng(5))[case]
    t, xs = grid.points(spec.n)
    j = fn.jet(t, xs[0] if spec.n == 1 else tuple(xs), 2)
    assert all(np.asarray(v).dtype == np.complex128 for v in j.coef.values())


def test_pullback_whose_time_depends_on_space_is_exact():
    # t' = t + 0.1 x feeds the x increment into the base's time argument;
    # evaluating the base on the map's jets still gives the exact partials
    base = gaussian_free(0.7, t0=2.0)

    def value(t, x):
        return base.value(t + 0.1 * x, x)

    h, w = 1e-2, np.array([1.0, -8.0, 8.0, -1.0]) / 12.0  # fourth-order first difference
    steps = h * np.array([-2.0, -1.0, 1.0, 2.0])
    w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # and second difference
    for t, x in ((0.3, 0.2), (-0.2, 0.9), (0.5, -1.1)):
        tj, xj = jets.Jet.variable(t, 0, 2, 4), jets.Jet.variable(x, 1, 2, 4)
        j = base.jet_at(tj + 0.1 * xj, [xj])
        fd = {
            (1, 0): w @ value(t + steps, x) / h,
            (0, 1): w @ value(t, x + steps) / h,
            (0, 2): w2 @ value(t, x + h * np.arange(-2.0, 3.0)) / h ** 2,
            (1, 1): w @ value(t + steps[:, None], x + steps[None, :]) @ w / h ** 2,
        }
        for alpha, want in fd.items():
            assert j.partial(alpha) == pytest.approx(want, rel=1e-7)


def test_transform_with_identity_is_identity():
    f1, _ = f_pair(LIN)
    moved = transformed(f1, GroupElement.identity(), LIN)
    for _ in range(10):
        t, x = RNG.uniform(-0.4, 0.6), RNG.uniform(-1.2, 1.2)
        assert abs(moved.value(t, x) - f1.value(t, x)) < 1e-14


@pytest.mark.parametrize("fn_spec_sampler", [
    ("linear", lambda: random_element(RNG)),
    ("inverse_quadratic", lambda: GroupElement(random_sl2r(RNG), 0.0, 0.0)),
    ("quadratic", lambda: random_admissible_element(RNG)),
    ("disk", lambda: random_disk_element(RNG)),
])
def test_transformed_solutions_families(fn_spec_sampler):
    name, sampler = fn_spec_sampler
    if name == "linear":
        fn, spec, grid = f_pair(LIN)[0], LIN, GRID
    elif name == "inverse_quadratic":
        fn = power_static(2.0, 2.0)
        spec, grid = FamilySpec.inverse_quadratic(0.7, 2.0), GridSpec((-0.4, 0.6), (0.4, 1.8))
    elif name == "quadratic":
        fn, spec, grid = g_functions(QUAD, 0.5)[1], QUAD, GRID
    else:
        fn, spec, grid = g_functions(DISK, 0.4)[2], DISK, GRID
    for _ in range(25):
        rep = verify_transformed_solution(fn, sampler(), spec, grid)
        assert rep.max_rel < 1e-9


def test_transform_special_fixed_point():
    # the shear subgroup with nu = 0 leaves the static-exponent lift invariant
    f1, _ = f_pair(LIN)
    for _ in range(20):
        lam, mu = RNG.uniform(-0.8, 0.8, 2)
        l0 = GroupElement(Mat2(1.0, lam, 0.0, 1.0), mu, 0.0)
        moved = transformed(f1, l0, LIN)
        t, x = RNG.uniform(-0.5, 0.5), RNG.uniform(-1.5, 1.5)
        assert abs(moved.value(t, x) - f1.value(t, x)) < 1e-12


def test_transformed_free_product_in_two_coordinates():
    # the multiplier's exponent sums over every coordinate, not just the
    # first: the heat kernel (t+2)^-1 exp(-(x1^2 + x2^2)/(4k(t+2))) in two
    spec = FamilySpec.free(0.7, n=2)
    fn = FormulaFn(lambda tj, x1, x2: jets.exp(-(x1 * x1 + x2 * x2) / (4.0 * 0.7 * (tj + 2.0)))
                   / (tj + 2.0), ndim=2)
    grid = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=8, nx=8)
    rng = np.random.default_rng(7)
    for l in (GroupElement(Mat2.identity(), 0.3, -0.5), random_element(rng)):
        assert verify_transformed_solution(fn, l, spec, grid).max_rel < 1e-9


def test_frame_evaluations_per_verification_and_oracle_call(monkeypatch):
    # a transformed verification evaluates its frame once, in the jet that
    # also guards the domain; a structure-equation (oracle) check evaluates
    # its family's frame once, on one time jet for the whole batch
    calls = {"outer": 0, "depth": 0}

    def counted(fn):
        def wrapper(*args):
            if calls["depth"] == 0:
                calls["outer"] += 1
            calls["depth"] += 1
            try:
                return fn(*args)
            finally:
                calls["depth"] -= 1
        return wrapper

    for name in ("mobius_time", "linear_xi_f", "quadratic_frame"):
        monkeypatch.setattr(coords, name, counted(getattr(coords, name)))
    rng = np.random.default_rng(0)
    nls = FamilySpec.nls2d(-0.7j, coupling=1.3)
    grid = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=4, nx=4)
    cases = [
        (f_pair(LIN)[0], random_element(rng, scale=0.3, translation=0.6), LIN, grid),
        (power_static(2.0, 2.0), GroupElement(random_sl2r(rng, 0.3)),
         FamilySpec.inverse_quadratic(0.7, 2.0), GridSpec((-0.4, 0.6), (0.4, 1.8), nt=4, nx=4)),
        (g_functions(QUAD, 0.5)[1], random_admissible_element(rng), QUAD, grid),
        (g_functions(DISK, 0.4)[2], random_disk_element(rng), DISK, grid),
        (plane_wave_nls(1.1, (0.4, -0.7), nls), random_element(rng), nls, grid),
    ]
    for fn, l, spec, g in cases:
        calls["outer"] = 0
        verify_transformed_solution(fn, l, spec, g)
        assert calls["outer"] == 1, spec.family
    for name in ("linear", "quadratic", "disk"):
        calls["outer"] = 0
        assert suites.run_named_check(f"multiplier.ode_oracle_{name}", suites.RunConfig(seed=7)).passed
        assert calls["outer"] == 1, name


def test_intertwining_on_solutions_and_nonsolutions():
    # the linear and inverse-quadratic non-solutions are
    # residual.intertwining_nonsolution
    f1, _ = f_pair(LIN)
    rep = verify_intertwining(f1, random_element(RNG), LIN, GRID)
    assert rep.max_abs < 1e-9
    nonsol = FormulaFn(lambda tj, xj: jets.exp(tj + xj))
    for _ in range(10):
        rep = verify_intertwining(nonsol, random_admissible_element(RNG), QUAD, GRID)
        assert rep.max_rel < 1e-9


def test_lift_residuals():
    # the lifts' residuals are the registry's; an unknown kind and a K0
    # lift without its constants are typed errors
    with pytest.raises(DomainError):
        lift_frame("nope", LIN)
    with pytest.raises(DomainError):
        lift_frame("K0", QUAD)


def test_report_fields():
    f1, _ = f_pair(LIN)
    rep = verify_transformed_solution(f1, random_element(RNG), LIN, GRID)
    assert rep.max_rel >= 0 and rep.max_abs >= 0
    assert len(rep.argmax) == 2
    assert GRID.t_range[0] - 1e-9 <= np.real(rep.argmax[0]) <= GRID.t_range[1] + 1e-9
    assert "max_rel" in str(rep)


def _counted_reports(monkeypatch):
    """A list that grows by one per tile report ``residual._report`` makes."""
    reports, report = [], residual._report
    monkeypatch.setattr(residual, "_report", lambda *args: reports.append(None) or report(*args))
    return reports


def _one_tile_and_tiled(monkeypatch, verify, budget):
    """``verify()`` on one tile, then in tiles of ``budget`` points, and how
    many tiles that took."""
    monkeypatch.setattr(residual, "TILE_POINTS", 10 ** 9)
    whole = verify()
    monkeypatch.setattr(residual, "TILE_POINTS", budget)
    reports = _counted_reports(monkeypatch)
    return whole, verify(), len(reports)


def _same_report(a, b):
    """Field by field, bit for bit; NaN equals NaN, arrays entry by entry."""
    assert a.n_points == b.n_points and len(a.argmax) == len(b.argmax)
    for u, v in zip((a.max_abs, a.max_rel, *a.argmax), (b.max_abs, b.max_rel, *b.argmax)):
        assert np.shape(u) == np.shape(v) and np.array_equal(u, v, equal_nan=True)


def _nested_lift(rng):
    psi0 = gaussian_free(0.7, t0=2.0)
    back = PullbackFn(PullbackFn(psi0, lift_frame("f1", LIN)), lift_frame("phi1", LIN))
    return grid_residual(back, FREE, GRID_9_11)


NLS = FamilySpec.nls2d(-0.7j, coupling=1.3)


@pytest.mark.parametrize("verify, budget", [
    # 9 points a column of the 9 x 11 grid: three columns a tile, four tiles
    (lambda rng: verify_transformed_solution(f_pair(LIN)[0], random_element(rng), LIN, GRID_9_11), 30),
    # 3 x 9 x 11 points a plane of the 2-d grid: four planes a tile, three tiles
    (lambda rng: verify_transformed_solution(plane_wave_nls(1.1, (0.4, -0.7), NLS),
                                             random_element(rng, size=3), NLS, GRID_9_11), 1200),
    (lambda rng: verify_intertwining(FormulaFn(lambda tj, xj: jets.exp(tj + xj)),
                                     random_element(rng), LIN, GRID_9_11), 30),
    (_nested_lift, 30),
], ids=["transformed", "nls_batch", "intertwining", "nested_lift"])
def test_a_tiled_report_is_the_one_tile_report(monkeypatch, verify, budget):
    whole, tiled, tiles = _one_tile_and_tiled(
        monkeypatch, lambda: verify(np.random.default_rng(17)), budget)
    assert tiles >= 3
    _same_report(tiled, whole)


T_4, X_6 = np.linspace(-0.4, 0.6, 4), np.linspace(-1.2, 1.2, 6)
GRID_4_6 = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=4, nx=6)  # two columns a tile of 8 points


def _designed_residual(values):
    """A function whose free-family residual is ``values(t, x)`` on the
    grid's points: psi = 0 with psi_t = values, and no x partials."""
    def formula(tj, xj):
        v = values(jets.value_of(tj), jets.value_of(xj))
        return jets.Jet(2, 2, {(0, 0): 0.0 * v, (1, 0): v})

    return FormulaFn(formula)


def test_a_tie_between_tiles_goes_to_the_first_point_in_c_order(monkeypatch):
    # the worst value at (t_0, x_2), in the second tile, and at (t_1, x_0),
    # in the first tile but later in C order
    fn = _designed_residual(lambda t, x: np.where(
        ((t == T_4[0]) & (x == X_6[2])) | ((t == T_4[1]) & (x == X_6[0])), 1.0, 0.5))
    whole, tiled, tiles = _one_tile_and_tiled(monkeypatch, lambda: grid_residual(fn, FREE, GRID_4_6), 8)
    assert tiles == 3 and tiled.argmax == (complex(T_4[0]), complex(X_6[2]))
    _same_report(tiled, whole)


def test_a_nan_in_the_last_tile_is_the_report(monkeypatch):
    fn = _designed_residual(lambda t, x: np.where((t == T_4[2]) & (x == X_6[5]), np.nan, 0.5))
    whole, tiled, tiles = _one_tile_and_tiled(monkeypatch, lambda: grid_residual(fn, FREE, GRID_4_6), 8)
    assert tiles == 3 and np.isnan(tiled.max_rel) and np.isnan(tiled.max_abs)
    assert tiled.argmax == (complex(T_4[2]), complex(X_6[5]))
    _same_report(tiled, whole)


def test_a_grid_whose_last_tile_leaves_the_domain_raises(monkeypatch):
    # the domain is x < 1: of the three tiles only the last, x in {0.72, 1.2},
    # leaves it, after the first two have been reported
    def formula(tj, xj):
        coords._above(-xj, -1.0, "-x")
        return xj * xj

    monkeypatch.setattr(residual, "TILE_POINTS", 8)
    reports = _counted_reports(monkeypatch)
    with pytest.raises(DomainError, match=re.escape("needs -x > -1.0")):
        grid_residual(FormulaFn(formula), FREE, GRID_4_6)
    assert len(reports) == 2


def test_a_large_grid_verifies_in_tiles_of_bounded_memory():
    # the disk case of the benchmark's residual_large round, 224 x 224: the
    # tracemalloc peak is 5.67 MB on one tile and 2.86 MB in two
    disk = FamilySpec.quadratic(0.7j, 0.3, 0.6)
    fn, l = g_functions(disk, 0.4)[2], random_disk_element(np.random.default_rng(1))
    grid = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=224, nx=224)
    verify_transformed_solution(fn, l, disk, grid)  # the caches of grids and jet tables
    tracemalloc.start()
    try:
        report = verify_transformed_solution(fn, l, disk, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_points == 224 * 224 and report.max_rel < 1e-9
    assert peak < 4e6


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap is held through glibc's mallopt")
def test_a_repeated_tiled_verification_faults_no_memory_back_in():
    # the disk and linear intertwining cases of the benchmark's residual_large
    # round: two tiles each, whose heap stays mapped after the first repeat;
    # freed to the kernel, each repeat faulted ~1,500 and ~1,200 pages in
    resource = pytest.importorskip("resource")
    disk = FamilySpec.quadratic(0.7j, 0.3, 0.6)
    grid = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=224, nx=224)
    rng = np.random.default_rng(1)
    for verify, fn, l, spec in (
        (verify_transformed_solution, g_functions(disk, 0.4)[2], random_disk_element(rng), disk),
        (verify_intertwining, FormulaFn(lambda tj, xj: jets.exp(tj + xj)), random_element(rng), LIN),
    ):
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            verify(fn, l, spec, grid)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 100


def test_only_a_verification_of_several_tiles_holds_the_heap(monkeypatch):
    # the registry's grids and batches are one tile each
    calls = []
    monkeypatch.setattr(residual, "_hold_heap", lambda: calls.append(None))
    assert suites.run_suite("all", suites.RunConfig(seed=7)).all_passed and calls == []
    grid = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=224, nx=224)
    verify_intertwining(FormulaFn(lambda tj, xj: jets.exp(tj + xj)), random_element(np.random.default_rng(1)),
                        LIN, grid)
    assert calls


# -- the product rule against the jet of the product ----------------------------


def _largest_term(spec, j, xs):
    """The largest of |psi_t|, |k Delta psi|, |k V psi| and the NLS cubic
    term over the points of the jet ``j`` of psi."""
    n = j.nvars - 1
    psi, lap = j.value, sum(j.partial(tuple(2 * (v == i) for v in range(1 + n))) for i in range(1, 1 + n))
    source = (spec.coupling * np.abs(psi) ** 2 * psi if spec.family == coords.NLS2D
              else residual.potential(spec, xs) * psi)
    return max(np.abs(a).max() for a in (j.partial((1,) + (0,) * n), spec.k * lap, spec.k * source))


def _product_rule_cases():
    rng = np.random.default_rng(23)
    grid = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=9, nx=11)
    late = GridSpec((0.15, 1.0), (-1.2, 1.2), nt=9, nx=11)
    grid_x_pos = GridSpec((-0.4, 0.6), (0.4, 1.8), nt=9, nx=11)
    invq = FamilySpec.inverse_quadratic(0.7, 2.0)
    psi0, psi8 = gaussian_free(0.7, t0=2.0), gaussian_free(0.7, t0=8.0)
    cases = {}
    for size in (None, 3):
        tag = "" if size is None else "_batch"
        cases.update({
            # the f1 lift of the constant 1 is a pullback nested in this one
            f"linear_nested_f1{tag}": (transformed(f_pair(LIN)[0], random_element(rng, size=size), LIN),
                                       LIN, grid),
            f"inverse_quadratic{tag}": (transformed(power_static(2.0, 2.0),
                                                    GroupElement(random_sl2r(rng, 0.3, size=size)), invq),
                                        invq, grid_x_pos),
            f"quadratic{tag}": (transformed(g_functions(QUAD, 0.5)[1],
                                            random_admissible_element(rng, size=size), QUAD), QUAD, grid),
            f"disk{tag}": (transformed(g_functions(DISK, 0.4)[2], random_disk_element(rng, size=size), DISK),
                           DISK, grid),
            f"nls{tag}": (transformed(plane_wave_nls(1.1, (0.4, -0.7), NLS), random_element(rng, size=size),
                                      NLS), NLS, grid),
        })
    # one factor over two coordinates: the heat kernel in the plane
    free2 = FamilySpec.free(0.7, n=2)
    kernel = FormulaFn(lambda tj, x1, x2: jets.exp(-(x1 * x1 + x2 * x2) / (4.0 * 0.7 * (tj + 2.0)))
                       / (tj + 2.0), ndim=2)
    cases["free_plane_one_factor"] = (transformed(kernel, random_element(rng), free2), free2, grid)
    for kind, base, spec, g in (("f1", psi0, LIN, grid), ("f2", psi8, LIN, late),
                                ("phi1", psi0, FREE, grid), ("phi2", psi8, FREE, late),
                                ("K0", psi0, QUAD, grid)):
        frame_spec = QUAD if kind == "K0" else LIN
        cases[f"lift_{kind}"] = (PullbackFn(base, lift_frame(kind, frame_spec, IntertwinerParams(0.8, 0.3, 0.2))),
                                 spec, g)
    return cases


PRODUCT_RULE_CASES = _product_rule_cases()


@pytest.mark.parametrize("name", list(PRODUCT_RULE_CASES))
def test_the_product_rule_residual_is_the_residual_of_the_jet_product(name):
    # psi bit for bit, and R to 1e-12 of the largest term of the equation
    fn, spec, grid = PRODUCT_RULE_CASES[name]
    t, xs = grid.points(spec.n)
    resid, psi = residual_arrays(fn, spec, t, xs)
    j = fn.jet(t, xs[0] if spec.n == 1 else tuple(xs), 2)
    assert np.array_equal(psi, j.value)
    ref = _residual_from_jet(j, spec, xs)
    assert np.abs(resid - ref).max() <= 1e-12 * _largest_term(spec, j, xs)


@pytest.mark.parametrize("fn, l, spec, grid", [
    (FormulaFn(lambda tj, xj: jets.exp(tj + xj)), random_element(RNG, size=4), LIN, GRID_9_11),
    (FormulaFn(lambda tj, xj: xj * xj), GroupElement(random_sl2r(RNG, size=4)),
     FamilySpec.inverse_quadratic(0.7, 0.0), GridSpec((-0.4, 0.6), (0.4, 1.8), nt=9, nx=11)),
    (FormulaFn(lambda tj, xj: jets.exp(tj + xj)), random_admissible_element(RNG, size=4), QUAD, GRID_9_11),
], ids=["linear", "inverse_quadratic", "quadratic"])
def test_intertwining_by_the_product_rule_matches_the_jet_product(monkeypatch, fn, l, spec, grid):
    # the defect and scale that verify_intertwining reports on, against its
    # left-hand side formed as the jet of K times the pulled-back base
    seen = []
    report = residual._report
    monkeypatch.setattr(residual, "_report", lambda *args: seen.append(args[:2]) or report(*args))
    verify_intertwining(fn, l, spec, grid)
    (defect, scale), = seen
    t, xs = grid.points(1)
    nv = 2
    fr = coords.frame(residual._batched(l, nv)[1], spec, jets.Jet.variable(t, 0, nv, 2))
    xjs = [jets.Jet.variable(xs[0], 1, nv, 2)]
    pulled = fn.jet_at(fr.tp, fr.space(xjs)) * fr.multiplier(xjs)
    xv = jets.value_of(fr.space(xjs)[0])
    rhs = jets.value_of(fr.xi) ** 2 * fr.multiplier(xjs).value * _residual_from_jet(
        fn.jet(jets.value_of(fr.tp), xv, 2), spec, [xv])
    np.testing.assert_array_equal(scale, np.abs(rhs) + np.abs(pulled.value))
    ref = _residual_from_jet(pulled, spec, xs) - rhs
    assert np.abs(defect - ref).max() <= 1e-12 * _largest_term(spec, pulled, xs)


def test_an_exponent_out_of_range_raises_the_range_error_of_the_jet():
    # phi1's exponent at t = 20 is about 1.5e3: the product rule reads the
    # exponent through the frame's one range guard, as the jet does
    phi1 = PullbackFn(constant_one(), lift_frame("phi1", LIN))
    grid = GridSpec((19.0, 20.0), (-1.2, 1.2), nt=4, nx=6)
    t, xs = grid.points(1)
    with pytest.raises(RangeError) as jet_error:
        phi1.jet(t, xs[0], 2)
    with pytest.raises(RangeError) as residual_error:
        grid_residual(phi1, FREE, grid)
    assert str(residual_error.value) == str(jet_error.value) == "multiplier exponent exceeds the double range"


def test_a_pullback_whose_base_leaves_its_domain_in_the_last_tile_raises(monkeypatch):
    # the f1 lift maps x to x - k^2 beta t^2; of the three tiles of the 4 x 6
    # grid only the last, x in {0.72, 1.2}, maps past the base's domain x < 1
    def formula(tj, xj):
        coords._above(-xj, -1.0, "-x")
        return xj * xj

    monkeypatch.setattr(residual, "TILE_POINTS", 8)
    reports = _counted_reports(monkeypatch)
    with pytest.raises(DomainError, match=re.escape("needs -x > -1.0")):
        grid_residual(PullbackFn(FormulaFn(formula), lift_frame("f1", LIN)), LIN, GRID_4_6)
    assert len(reports) == 2


def test_a_stencil_of_a_batch_raises_a_shape_error(monkeypatch):
    # the stacked moves take the leading axis that a batch's axes hold: the
    # stencil names the batch shape before it evaluates anything
    seeds = []
    monkeypatch.setattr(solutions.SmoothFn, "_seed", lambda *args: seeds.append(args))
    batch = transformed(f_pair(LIN)[0], random_element(np.random.default_rng(3), size=3), LIN)
    t, xs = GridSpec((-0.4, 0.6), (-1.2, 1.2), nt=4, nx=5).points(1)
    with pytest.raises(ShapeError, match=re.escape("batch of shape (3,)")):
        residual.stencil(batch, t, xs, 0, [(0, 1e-3), (1, 1e-3)])
    assert seeds == []


COEFFICIENT_CASES = ["linear", "quadratic", "disk", "nls", "lift_f2", "lift_K0"]


def _coefficient_case(name, wrap):
    """A function of each of the five coefficient checks, with its family and
    grid, at the registry's parameters; ``wrap`` wraps a lift's frame."""
    rng = np.random.default_rng(21)
    sp = suites.RunConfig().specs()
    lin, quad, disk, nls = (sp[n] for n in ("linear", "quadratic", "disk", "nls2d"))
    if name == "lift_f2":
        return PullbackFn(constant_one(), wrap(lift_frame("f2", lin))), lin, GridSpec((0.15, 1.0), (-1.2, 1.2))
    if name == "lift_K0":
        k0 = lift_frame("K0", quad, IntertwinerParams(0.8, 0.3, 0.2))
        return PullbackFn(gaussian_free(0.7, t0=2.0), wrap(k0)), quad, GRID
    fn, l, spec = {
        "linear": lambda: (f_pair(lin)[0], random_element(rng, 0.3, 0.6, size=30), lin),
        "quadratic": lambda: (g_functions(quad, 0.5)[1], random_admissible_element(rng, size=30), quad),
        "disk": lambda: (g_functions(disk, 0.4)[2], random_disk_element(rng, size=30), disk),
        "nls": lambda: (plane_wave_nls(1.1, (0.4, -0.7), nls), random_element(rng, size=15), nls),
    }[name]()
    return transformed(fn, l, spec), spec, GRID


def _slipped_c(frame_of):
    """``frame_of`` whose frames have C scaled by 1 + 1e-9."""
    def slipped(*args):
        fr = frame_of(*args)
        return dataclasses.replace(fr, C=fr.C * (1.0 + 1e-9))
    return slipped


@pytest.mark.parametrize("slip", [False, True], ids=["clean", "slipped_C"])
@pytest.mark.parametrize("case", COEFFICIENT_CASES)
def test_the_coefficient_bound_covers_the_grid_residual(monkeypatch, case, slip):
    # the bound holds |R/psi| on the whole box, so it is at least the grid's
    # max_rel on the same function, up to round-off; a 1e-9 slip of the
    # frame's C reads about as much on both, and on no trial far more
    wrap = _slipped_c if slip else (lambda frame_of: frame_of)
    monkeypatch.setattr(residual, "frame", wrap(coords.frame))
    fn, spec, grid = _coefficient_case(case, wrap)
    bound, on_grid = coefficient_residual(fn, spec, grid), grid_residual(fn, spec, grid).max_rel
    assert np.shape(bound) == np.shape(on_grid) == fn.batch
    if not slip:
        assert np.max(bound) < 1e-13 and np.max(on_grid) < 1e-13
    else:
        assert np.max(on_grid) > 1e-10
        assert np.all(bound >= on_grid - 1e-14) and np.all(bound <= 4.0 * on_grid + 1e-14)


FIVE = ["residual.transformed_linear", "residual.transformed_quadratic", "residual.transformed_disk",
        "residual.transformed_nls", "residual.lift_residuals"]


@pytest.mark.parametrize("name", FIVE + ["residual.self_residuals", "residual.intertwining_nonsolution",
                                         "residual.transformed_inverse_quadratic"])
def test_only_the_exponent_checks_read_no_grid(monkeypatch, name):
    # the five checks of exponents read coefficients; the evaluation path's
    # end-to-end checks and the power x^s, no exponent, stay on the grid
    grids, tiled = [], residual._tiled
    monkeypatch.setattr(residual, "_tiled", lambda *args: grids.append(None) or tiled(*args))
    assert suites.run_named_check(name, suites.RunConfig(seed=7)).passed
    assert (len(grids) == 0) == (name in FIVE)


def test_an_nls_element_with_complex_entries_raises():
    # Re B != 0 makes |psi|^2 depend on x: no cubic term is computed
    nls = FamilySpec.nls2d(-0.7j, coupling=1.3)
    l = random_element(np.random.default_rng(5), complex_entries=True, size=3)
    with pytest.raises(DomainError, match="Re B or Re C"):
        coefficient_residual(transformed(plane_wave_nls(1.1, (0.4, -0.7), nls), l, nls), nls, GRID)


def test_the_coefficients_of_no_exponent_or_another_potential_raise():
    with pytest.raises(DomainError, match="not an exponent"):
        coefficient_residual(power_static(2.0, 2.0), FamilySpec.inverse_quadratic(0.7, 2.0), GRID)
    with pytest.raises(DomainError, match=re.escape("powers [-2] are not among")):
        coefficient_residual(gaussian_free(0.7, 2.0), FamilySpec.inverse_quadratic(0.7, 2.0), GRID)


def _slip_the_wave_rate(slip_literal, monkeypatch):
    # the wave's rate k (g a^2 - |p|^2) is the one place its k enters
    wave = solutions.plane_wave_nls
    monkeypatch.setattr(suites, "plane_wave_nls", lambda amplitude, p, spec: wave(
        amplitude, p, dataclasses.replace(spec, k=spec.k * (1.0 + 1e-9))))


def _literal(module, function, text, literal):
    return lambda slip_literal, monkeypatch: slip_literal(
        importlib.import_module(f"schroedsym.{module}"), function, text, literal)


@pytest.mark.parametrize("slip, name, seeds", [
    (_literal("coords", "frame", "C = -0.25 / k", "-0.25"), "residual.transformed_nls", (7, 11)),
    (_literal("coords", "frame", "B = -nu / (2.0 * k)", "2.0"), "residual.transformed_nls", (7, 11)),
    (_literal("coords", "frame", "-0.5 * jets.log(r)\n", "0.5"), "residual.transformed_nls", (7, 11)),
    # at seed 7 it reads 8.9e-10 against the 1e-9 gate, on the grid as well
    (_literal("coords", "frame", "nu * nu / (4.0 * k)", "4.0"), "residual.transformed_nls", (11,)),
    (_literal("coords", "frame", "(k * beta / 2.0)", "2.0"), "residual.transformed_linear", (7, 11)),
    (_literal("coords", "frame", "(2.0 / 3.0) * tp", "2.0"), "residual.transformed_linear", (7, 11)),
    (_literal("coords", "quadratic_frame", "C = (omega / 2.0)", "2.0"), "residual.transformed_disk", (7, 11)),
    (_literal("multiplier", "lift_frame", "cub / 3.0 * t", "3.0"), "residual.transformed_linear", (7, 11)),
    (_literal("multiplier", "lift_frame", "(-k * b / 2.0) * t", "2.0"), "residual.lift_residuals", (7, 11)),
    (_slip_the_wave_rate, "residual.transformed_nls", (7, 11)),
], ids=["frame-C", "frame-B", "frame-A-log", "frame-A-nu2", "frame-B-beta", "frame-A-beta2", "quadratic-C",
        "f1-A-cubic", "f2-B", "wave-rate"])
def test_the_coefficient_checks_keep_their_kills(slip_literal, monkeypatch, slip, name, seeds):
    # each 1+1e-9 slip that the grid residual killed, the coefficients kill
    cfgs = [suites.RunConfig(seed=seed) for seed in seeds]
    assert all(suites.run_named_check(name, cfg).passed for cfg in cfgs)
    slip(slip_literal, monkeypatch)
    for cfg in cfgs:
        assert not suites.run_named_check(name, cfg).passed, cfg.seed
