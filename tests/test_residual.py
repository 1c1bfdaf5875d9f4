import re
import tracemalloc

import numpy as np
import pytest

from schroedsym import coords, jets, residual, suites
from schroedsym.coords import FamilySpec
from schroedsym.errors import DomainError
from schroedsym.group import GroupElement, Mat2
from schroedsym.multiplier import IntertwinerParams
from schroedsym.residual import (
    GridSpec,
    PullbackFn,
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
    fd_h, fd_half = (residual._fd_residual_arrays(f2, LIN, t, xs, h)[0] for h in (1e-3, 5e-4))
    assert np.max(np.abs((4.0 * fd_half - fd_h) / 3.0 - exact)) < 1e-7


def test_grid_residual_raises_off_the_domain():
    # the jet is the only domain guard: no grid point is dropped
    spec = FamilySpec.inverse_quadratic(0.7, 2.0)
    with pytest.raises(DomainError, match="needs x > 0.0"):
        grid_residual(power_static(2.0, 2.0), spec, GridSpec((-0.3, 0.3), (-0.5, 1.5)))


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
    expected = {c.label: 3 if c.label.endswith("_nls") else 4 if "intertwining" in c.label else 2
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


GRADED_IDS = ["linear", "inverse_quadratic", "quadratic", "disk", "nls", "K0",
              "f1", "f2", "intertwining_linear"]


@pytest.mark.parametrize("size", [None, 3], ids=["one", "batch"])
def test_nls_pullback_factors_each_span_one_space_axis(size):
    nls = FamilySpec.nls2d(-0.7j, coupling=1.3)
    fn = transformed(plane_wave_nls(1.1, (0.4, -0.7), nls), random_element(RNG, size=size), nls)
    batch = () if size is None else (size,)
    t, xs = GRID_9_11.points(2)
    shapes = [f.block.shape[1:] for f in fn.factors_at(*fn._seed(t, xs, 2))]
    assert shapes == [batch + (9, 11, 1), batch + (9, 1, 11)]


def test_nls_pullback_matches_the_product_of_the_whole_factors():
    # the pairs (b1 K1)(b2 K2) against (b1 b2)(K1 K2), the order before pairing
    nls = FamilySpec.nls2d(-0.7j, coupling=1.3)
    base, l = plane_wave_nls(1.1, (0.4, -0.7), nls), random_element(RNG, size=3)
    t, xs = GRID_9_11.points(2)
    tj, xjs = base._seed(t, xs, 2)
    fr = coords.frame(residual._batch_first(l, 3), nls, tj)
    b1, b2 = base.factors_at(fr.tp, fr.space(xjs))
    k1, k2 = fr.multiplier_factors(xjs)
    want, got = (b1 * b2) * (k1 * k2), transformed(base, l, nls).jet_at(tj, xjs)
    assert set(got.support) == set(want.support)
    for alpha in want.support:
        w = want.coefficient(alpha)
        assert np.max(np.abs(got.coefficient(alpha) - w)) <= 1e-14 * np.max(np.abs(w))


@pytest.mark.parametrize("case", [i for i, name in enumerate(GRADED_IDS) if name != "nls"],
                         ids=[name for name in GRADED_IDS if name != "nls"])
def test_one_coordinate_pullback_is_the_base_times_the_multiplier(case):
    # bit for bit the product before pullbacks paired factors
    fn, spec, grid = _graded_cases(np.random.default_rng(5))[case]
    t, xs = grid.points(1)
    tj, xjs = fn._seed(t, xs[0], 2)
    fr = fn.frame(tj)
    want, got = fn.base.jet_at(fr.tp, fr.space(xjs)) * fr.multiplier(xjs), fn.jet_at(tj, xjs)
    assert got.support == want.support and np.array_equal(got.block, want.block)


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
    ref = residual._residual(spec, psi_t, lap, j4.value, xs)
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
    # tracemalloc peak is 14.5 MB on one tile and 7.3 MB in two
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
    assert peak < 10e6
