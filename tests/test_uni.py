import numpy as np
import pytest

from conftest import (check_uni_loop, cone_image, jacobian_weight,
                      last_depth, psi, transversal)
import gibbsflow.uni as uni_mod
from gibbsflow.gibbs import FrequencyTooSmallError
from gibbsflow.operator import eigendata
from gibbsflow.presets import make_preset
from gibbsflow.system import OutsideImageError, branch_chain, word_array
from gibbsflow.uni import (_sweep, _tableau_runs, _y_grid, a_sequence,
                           b_sequence, check_uni, coboundary_test,
                           transversal_pair, transversal_scales,
                           uni_from_transversality)


@pytest.fixture(scope="module")
def sys_a():
    return make_preset("SYS-A")


@pytest.fixture(scope="module")
def sys_b():
    return make_preset("SYS-B")


@pytest.fixture(scope="module")
def sys_c():
    return make_preset("SYS-C")


@pytest.fixture(scope="module")
def sys_lin():
    return make_preset("SYS-A-LINROOF")


@pytest.fixture(scope="module")
def eig_a(sys_a):
    return eigendata(sys_a, 0.0, N=256)


@pytest.fixture(scope="module")
def eig_b(sys_b):
    return eigendata(sys_b, 0.0, N=256)


@pytest.fixture(scope="module")
def eig_lin(sys_lin):
    return eigendata(sys_lin, 0.0, N=256)


# -- constants -------------------------------------------------------------------


def test_constant_roof_kills_c4_and_c7(sys_a):
    cs = sys_a.constants
    assert cs.c4 == 0.0
    assert cs.c7 == 0.0


def test_sys_b_c4_closed_form(sys_b):
    # r = (2 + cos 2 pi x)/3, |r'| <= 2 pi / 3, |T'| = 2: C4 = pi/3
    assert sys_b.constants.c4 == pytest.approx(np.pi / 3, rel=1e-6)


def test_sys_b_c7_closed_form(sys_b):
    # max{2 C4 rho / (1 - 1/lam), (1 - 1/lam) C4} with lam = rho = 2
    assert sys_b.constants.c7 == pytest.approx(8 * np.pi / 3, rel=1e-6)


def test_c9_dominates_observed_holder_ratio(sys_b):
    # C9 = 2 max{C2, 1} ||Dr||_{C^alpha} / (1 - 1/lam), the Hoelder bound
    # for D psi; r' = -(2 pi / 3) sin(2 pi x) has sup 2 pi / 3 and, at
    # alpha = 1, seminorm sup |r''| = 4 pi^2 / 3
    from gibbsflow.system import validate
    rep = validate(sys_b)
    dr_norm = 2 * np.pi / 3 + 4 * np.pi ** 2 / 3
    c9 = 2.0 * max(rep.c2, 1.0) * dr_norm / (1.0 - 1.0 / sys_b.constants.lam)
    xs = np.linspace(0.0, 1.0, 400)
    for n in (1, 2, 3):
        for w1 in word_array(sys_b, n).tolist():
            d = branch_chain(sys_b, w1, xs)["DSnr_h"]
            ratio = np.abs(np.diff(d)) / np.diff(xs) ** sys_b.alpha
            assert np.max(ratio) <= 0.5 * c9 * (1 + 1e-9)


# -- displacement functions --------------------------------------------------------


def test_psi_matches_direct_formula_depth1(sys_b):
    # psi(y) = r(y/2) - r((y+1)/2) for the two depth-1 branches
    p = psi(sys_b, (0,), (1,))
    ys = np.linspace(0.0, 1.0, 101)
    r = lambda x: (2 + np.cos(2 * np.pi * x)) / 3
    assert np.allclose(p(ys), r(ys / 2) - r((ys + 1) / 2), atol=1e-12)


def test_psi_derivative_against_finite_differences(sys_b):
    p = psi(sys_b, (0, 1), (1, 0))
    ys = np.linspace(0.02, 0.98, 41)
    h = 1e-6
    fd = (p(ys + h) - p(ys - h)) / (2 * h)
    assert np.allclose(p.deriv(ys), fd, atol=1e-5)


def test_psi_antisymmetry(sys_b):
    ys = np.linspace(0.0, 1.0, 64)
    p12 = psi(sys_b, (0, 0), (1, 1))
    p21 = psi(sys_b, (1, 1), (0, 0))
    assert np.max(np.abs(p12(ys) + p21(ys))) < 1e-12
    assert np.max(np.abs(p12.deriv(ys) + p21.deriv(ys))) < 1e-12


def test_psi_derivative_bounded_by_c7(sys_b):
    c7 = sys_b.constants.c7
    ys = np.linspace(0.0, 1.0, 200)
    for n in (1, 2, 3, 4):
        words = [tuple(w) for w in word_array(sys_b, n).tolist()]
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                p = psi(sys_b, words[i], words[j])
                assert np.max(np.abs(p.deriv(ys))) <= c7 * (1 + 1e-9)


# -- cone images and transversality -------------------------------------------------


def test_cone_image_constant_roof_degenerate(sys_a):
    # at x = 0.3: orbit 0.3 -> 0.6 -> 0.2 -> 0.4 -> 0.8, symbols 0, 1, 0, 0
    lo, hi = cone_image(sys_a, (0, 1, 0, 0), 0.8)
    assert lo == pytest.approx(0.0, abs=1e-15)
    assert hi == pytest.approx(0.0, abs=1e-15)


def test_cone_image_width_matches_jacobian(sys_b):
    c7 = sys_b.constants.c7
    # at x = 0.2: orbit 0.2 -> 0.4 -> 0.8 -> 0.6, symbols 0, 0, 1
    lo, hi = cone_image(sys_b, (0, 0, 1), 0.6)
    assert hi - lo == pytest.approx(2 * c7 / 8, rel=1e-9)  # |DT^3| = 8


def test_transversal_refuses_y_outside_a_domain(sys_c):
    # the domain of h_(0,1) is the image [1/3, 1) of symbol 1; 0.1 lies in
    # the domain [0, 2/3) of h_(0,2) only
    with pytest.raises(OutsideImageError):
        transversal(sys_c, (0, 1), (0, 2), 0.1)
    with pytest.raises(OutsideImageError):
        cone_image(sys_c, (0, 1), 0.1)


def test_constant_roof_never_transversal(sys_a):
    # degenerate intervals {0} touch, and closed intervals touching are
    # counted as non-transversal; h_0(0.4) = 0.2 and h_1(0.4) = 0.7
    assert transversal(sys_a, (0,), (1,), 0.4) is False


def test_sys_b_has_a_transversal_sibling_pair(sys_b):
    found = False
    for n in (3, 4, 5):
        ys = np.linspace(0.05, 0.95, 7)
        for y in ys:
            words = word_array(sys_b, n).tolist()
            for i in range(len(words)):
                for j in range(i + 1, len(words)):
                    if transversal(sys_b, words[i], words[j], y):
                        found = True
    assert found


def test_check_uni_positive_for_sys_b(sys_b, monkeypatch):
    monkeypatch.setattr(uni_mod, "_GRID", 256)
    rep = check_uni(sys_b, 2, R=0.1)
    assert rep["D_full"] > 0.0
    assert rep["D_point"] > 0.0


def test_check_uni_zero_for_constant_roof(sys_a, monkeypatch):
    monkeypatch.setattr(uni_mod, "_GRID", 128)
    rep = check_uni(sys_a, 2, R=0.1)
    assert rep["D_full"] == 0.0
    assert rep["D_point"] == 0.0


def test_check_uni_refuses_too_many_pairs(sys_b, monkeypatch):
    # 2^8 depth-8 words: 65,536 ordered pairs
    monkeypatch.setattr(uni_mod, "_GRID", 8)
    with pytest.raises(ValueError, match="too many branch pairs"):
        check_uni(sys_b, 8, R=0.1)


# -- a(n) and b(n) -------------------------------------------------------------


def test_constant_roof_a_and_b_identically_one(sys_a, eig_a):
    a = a_sequence(sys_a, eig_a, 5, grid=64)
    b = b_sequence(sys_a, eig_a, 5, grid=64)
    assert np.allclose(a, 1.0, atol=1e-6)
    assert np.allclose(b, 1.0, atol=1e-6)


def test_cohomologous_roof_a_and_b_identically_one(sys_lin, eig_lin):
    a = a_sequence(sys_lin, eig_lin, 5, grid=64)
    b = b_sequence(sys_lin, eig_lin, 5, grid=64)
    assert np.allclose(a, 1.0, atol=1e-6)
    assert np.allclose(b, 1.0, atol=1e-6)


def test_sys_b_a_sequence_drops_below_one(sys_b, eig_b):
    a = a_sequence(sys_b, eig_b, 8, grid=128)
    assert min(a) < 1.0 - 1e-3
    assert all(v <= 1.0 + 1e-8 for v in a)


def test_sys_b_b_sequence_drops_below_one(sys_b, eig_b):
    b = b_sequence(sys_b, eig_b, 8, grid=128)
    assert min(b) < 1.0 - 1e-3


def test_b_submultiplicative(sys_b, eig_b):
    b = b_sequence(sys_b, eig_b, 6, grid=128)
    for n in range(1, 4):
        for m in range(1, 4):
            assert b[n + m - 1] <= b[n - 1] * b[m - 1] * (1 + 1e-6)


# -- the a(n)/b(n) sweep --------------------------------------------------------


def _brute_a(l, h, w):
    """Largest weight of the closed intervals meeting one of them, O(k^2)."""
    return max(sum(w[i] for i in range(len(l)) if l[i] <= h[j] and l[j] <= h[i])
               for j in range(len(l)))


def _brute_b(l, h, w):
    """Largest weight of the closed intervals through one point, O(k^2): the
    heaviest point is a left endpoint."""
    return max(sum(w[i] for i in range(len(l)) if l[i] <= x <= h[i])
               for x in l)


# (lo, hi, weights); dyadic weights make every sum exact, so b compares by ==
HAND_MADE = {
    "one interval": ([0.0], [1.0], [0.375]),
    "touching closed": ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.25, 0.5, 0.125]),
    "ties": ([0.0, 1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 2.0, 1.0, 3.0],
             [0.125, 0.25, 0.0625, 0.5, 0.0625]),
    "nested": ([0.0, 2.0, 4.0, 4.5], [10.0, 3.0, 5.0, 4.75],
               [0.0625, 0.25, 0.125, 0.5]),
    "unequal disjoint": ([0.0, 2.0, 2.5, 5.0], [1.0, 3.0, 4.0, 6.0],
                         [0.5, 0.25, 0.125, 0.0625]),
    "degenerate": ([-0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [0.5, 0.25, 0.25]),
}


@pytest.mark.parametrize("case", sorted(HAND_MADE))
def test_sweep_matches_brute_force_on_hand_made_intervals(case):
    from gibbsflow.uni import _sweep
    l, h, w = (np.array([v]) for v in HAND_MADE[case])
    a, b = _sweep(l, h, w)
    assert b == _brute_b(l[0], h[0], w[0])
    assert abs(a - _brute_a(l[0], h[0], w[0])) <= 1e-15


def test_sweep_takes_the_worst_row_of_a_block():
    # rows are y columns: the block's statistics are the largest row's
    from gibbsflow.uni import _sweep
    rng = np.random.default_rng(7)
    c, k = 40, 25
    lo = rng.integers(0, 30, (c, k)) / 4.0
    hi = lo + rng.integers(0, 12, (c, k)) / 4.0
    w = rng.integers(1, 64, (c, k)) / 1024.0
    a, b = _sweep(lo, hi, w)
    assert b == max(_brute_b(*row) for row in zip(lo, hi, w))
    assert abs(a - max(_brute_a(*row) for row in zip(lo, hi, w))) <= 1e-15


def _non_transversal_weight(l, h, w) -> float:
    """Largest total weight of the intervals [l, h] meeting one of them."""
    order_l = np.argsort(l)
    order_h = np.argsort(h)
    ls, ws_l = l[order_l], np.concatenate([[0.0], np.cumsum(w[order_l])])
    hs, ws_h = h[order_h], np.concatenate([[0.0], np.cumsum(w[order_h])])
    total = float(np.sum(w))
    left = ws_h[np.searchsorted(hs, l, side="left")]
    right = total - ws_l[np.searchsorted(ls, h, side="right")]
    return float(np.max(total - left - right))


def _stabbing_weight(l, h, w) -> float:
    """Largest total weight of the intervals [l, h] through one point."""
    coords = np.concatenate([l, h])
    deltas = np.concatenate([w, -w])
    kind = np.concatenate([np.zeros(len(l)), np.ones(len(h))])
    order = np.lexsort((kind, coords))
    return float(np.max(np.cumsum(deltas[order])))


def _column_loop_sequences(sys, eig, n_max, grid):
    """a(n), b(n) one y at a time over the admissible rows of its run."""
    seqs = ([], [])
    for n in range(1, n_max + 1):
        runs = _tableau_runs(sys, eig, word_array(sys, n),
                             _y_grid(sys, n, grid))
        worst = [0.0, 0.0]
        for _, _, lo, hi, wgt in runs:
            for col in range(lo.shape[1]):
                keep = np.isfinite(lo[:, col])
                args = lo[keep, col], hi[keep, col], wgt[keep, col]
                worst[0] = max(worst[0], _non_transversal_weight(*args))
                worst[1] = max(worst[1], _stabbing_weight(*args))
        for out, v in zip(seqs, worst):
            out.append(v)
    return seqs


def _preimage_tableau(sys, eig, n, ys):
    """Interval and weight arrays over (word, y), NaN where inadmissible:
    rows are the depth-n words in ``word_array`` order, and each symbol's
    words are pulled back in one engine call at all the ys of its image."""
    words = word_array(sys, n)
    c7 = sys.constants.c7
    k, g = len(words), len(ys)
    lo = np.full((k, g), np.nan)
    hi = np.full((k, g), np.nan)
    wgt = np.full((k, g), np.nan)
    for s in range(sys.m):
        rows = np.flatnonzero(words[:, -1] == s)
        dlo, dhi = sys.image_interval(s)
        cols = np.flatnonzero((ys >= dlo) & (ys <= dhi))
        if not (len(rows) and len(cols)):
            continue
        pb = last_depth(sys, words[rows], ys[cols], ("dTn", "DSnr_h", "J"),
                        eig)
        centre = -pb.DSnr_h
        half = c7 / np.abs(pb.dTn)
        cell = np.ix_(rows, cols)
        lo[cell] = centre - half
        hi[cell] = centre + half
        wgt[cell] = pb.J
    totals = np.nansum(wgt, axis=0)
    wgt = wgt / totals[None, :]
    return words, lo, hi, wgt


SWEEP_SYSTEMS = ["SYS-A", "SYS-B", "SYS-C", "SYS-A-BERNOULLI", "SYS-A-LINROOF",
                 "SYS-C-NLROOF", "NL-DOUBLING"]


def _system(name, nl_doubling):
    return nl_doubling if name == "NL-DOUBLING" else make_preset(name)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("name", SWEEP_SYSTEMS)
def test_sweep_matches_column_loop(name, sigma, nl_doubling):
    # same tableau, same endpoint order: b keeps its bits; a sums the
    # weights in another order, so it may move by an ulp or two
    s = _system(name, nl_doubling)
    eig = eigendata(s, sigma, N=256)
    a_ref, b_ref = _column_loop_sequences(s, eig, 6, 64)
    assert b_sequence(s, eig, 6, grid=64) == b_ref
    a = a_sequence(s, eig, 6, grid=64)
    assert max(abs(x - y) for x, y in zip(a, a_ref)) <= 4.5e-16


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("name", SWEEP_SYSTEMS)
def test_blocks_are_slices_of_the_nan_tableau(name, sigma, nl_doubling,
                                              monkeypatch):
    # an inadmissible cell is +inf/+inf/0 where the tableau has NaN; at 97
    # cells a run, depth-6 runs are one column wide
    s = _system(name, nl_doubling)
    eig = eigendata(s, sigma, N=256)
    for block in (uni_mod._SWEEP_BLOCK, 97):
        monkeypatch.setattr(uni_mod, "_SWEEP_BLOCK", block)
        for n in (1, 3, 6):
            ys = _y_grid(s, n, 64)
            words, *tableau = _preimage_tableau(s, eig, n, ys)
            inadmissible = np.isnan(tableau[2])
            want = [np.where(inadmissible, np.inf, tableau[0]),
                    np.where(inadmissible, np.inf, tableau[1]),
                    np.where(inadmissible, 0.0, tableau[2])]
            start = 0
            for c, rows, *run in _tableau_runs(s, eig, words, ys):
                width = run[0].shape[1]
                assert len(words) * width <= block or width == 1
                # a run left out is inadmissible at all its ys; a run holds
                # the words admissible at one of its ys at least
                assert inadmissible[:, start:c].all()
                cols = slice(c, c + width)
                held = ~inadmissible[:, cols].all(axis=1)
                assert np.array_equal(rows, np.flatnonzero(held))
                for got, full in zip(run, want):
                    assert np.array_equal(got, full[rows, cols])
                start = c + width
            assert inadmissible[:, start:].all()


def test_blocks_pull_each_symbol_back_once(sys_c, monkeypatch):
    # the engine runs once per symbol, not once per run
    import gibbsflow.system as system_mod
    eig = eigendata(sys_c, 0.0, N=256)
    words = word_array(sys_c, 8)
    ys = _y_grid(sys_c, 8, 128)
    pullbacks = system_mod.pullbacks
    calls = []
    monkeypatch.setattr(system_mod, "pullbacks", lambda *args: (
        calls.append(args[1]) or pullbacks(*args)))
    runs = list(_tableau_runs(sys_c, eig, words, ys))
    assert len(runs) > 1 and len(calls) == sys_c.m
    assert sum(len(w) for w in calls) == len(words)


def test_a_run_across_symbol_sets_sweeps_as_its_columns(sys_c):
    # SYS-C's ys fall into three regions holding two, three and two of its
    # symbols; one run spans them, and its +inf rows move neither statistic
    eig = eigendata(sys_c, 0.5, N=256)
    words = word_array(sys_c, 3)
    [(_, rows, lo, hi, w)] = _tableau_runs(sys_c, eig, words,
                                           _y_grid(sys_c, 3, 64))
    assert np.array_equal(rows, np.arange(len(words)))
    admissible = np.isfinite(lo)
    assert len(np.unique(admissible, axis=1).T) == 3
    assert np.array_equal(admissible, np.isfinite(hi))
    assert np.array_equal(admissible, w > 0)
    columns = [_sweep(lo[keep, j][None], hi[keep, j][None], w[keep, j][None])
               for j, keep in enumerate(admissible.T)]
    assert _sweep(lo.T, hi.T, w.T) == tuple(map(max, zip(*columns)))


ORACLE_SYSTEMS = ["SYS-B", "SYS-C", "SYS-C-NLROOF", "NL-DOUBLING"]


@pytest.mark.parametrize("name", ORACLE_SYSTEMS + ["SYS-A"])
def test_check_uni_equals_the_pair_loop(name, nl_doubling, monkeypatch):
    # D_full and D_point as the loop over word-tuple pairs finds them
    s = _system(name, nl_doubling)
    monkeypatch.setattr(uni_mod, "_GRID", 96)
    for n, R in ((1, 0.1), (2, 0.1), (3, 0.02), (4, 0.5)):
        assert check_uni(s, n, R) == check_uni_loop(s, n, R, 96)


def test_b_sequence_reuses_the_tableaux_of_a_sequence(sys_b, monkeypatch):
    import gibbsflow.system as system_mod
    import gibbsflow.uni as uni_mod
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(uni_mod, "pullback", counted(uni_mod.pullback))
    monkeypatch.setattr(system_mod, "pullback", counted(system_mod.pullback))
    monkeypatch.setattr(system_mod, "pullbacks", counted(system_mod.pullbacks))
    eig = eigendata(sys_b, 0.0, N=64)
    a = a_sequence(sys_b, eig, 4, grid=32)
    assert calls
    calls.clear()
    b = b_sequence(sys_b, eig, 4, grid=32)
    assert not calls
    assert a_sequence(sys_b, eig, 4, grid=32) == a
    assert not calls
    # a different grid, or other eigendata, builds the tableaux again
    assert len(b_sequence(sys_b, eig, 4, grid=33)) == 4
    assert calls
    calls.clear()
    assert b_sequence(sys_b, eigendata(sys_b, 0.0, N=64), 4, grid=32) == b
    assert calls


def test_sequences_match_the_benchmark_reference(nl_doubling):
    # the CLI sizes (n_max 8, grid 128, N = 256, sigma 0) of the uni steps
    # in perfbench/workloads.py, against perfbench/reference.json at the
    # 1e-12 tolerance of its correctness gate
    import json
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    for name in ("SYS-C-NLROOF", "NL-DOUBLING"):
        s = _system(name, nl_doubling)
        eig = eigendata(s, 0.0, N=256)
        want = ref[f"uni:{name}:n_max=8"]
        for got, exp in ((a_sequence(s, eig, 8, grid=128), want["a"]),
                         (b_sequence(s, eig, 8, grid=128), want["b"])):
            assert len(got) == len(exp)
            assert max(abs(g - e) for g, e in zip(got, exp)) <= 1e-12


# -- coboundary test -------------------------------------------------------------


def test_constant_roof_is_coboundary(sys_a):
    rep = coboundary_test(sys_a, J_trunc=40, tol=1e-6)
    assert rep["cohomologous"]
    assert rep["residual"] < 1e-9
    assert rep["chi"][0] == pytest.approx(1.0, abs=1e-9)
    assert rep["chain_deviation"] < 1e-9


def test_linear_roof_coboundary_closed_form(sys_lin):
    # r = 1 - x/2 = theta o T - theta + chi with theta = -x/2,
    # chi = 1 on [0, 1/2) and 1/2 on [1/2, 1)
    rep = coboundary_test(sys_lin, J_trunc=40, tol=1e-6)
    assert rep["cohomologous"]
    assert rep["residual"] < 1e-8
    assert rep["chi"][0] == pytest.approx(1.0, abs=1e-8)
    assert rep["chi"][1] == pytest.approx(0.5, abs=1e-8)


def test_sys_b_is_not_coboundary(sys_b):
    rep = coboundary_test(sys_b, J_trunc=40, tol=1e-6)
    assert not rep["cohomologous"]
    assert rep["residual"] > 10 * rep["tol"]


def test_coboundary_residual_stable_under_truncation(sys_b):
    r20 = coboundary_test(sys_b, J_trunc=20, tol=1e-6)["residual"]
    r40 = coboundary_test(sys_b, J_trunc=40, tol=1e-6)["residual"]
    assert r40 == pytest.approx(r20, rel=1e-4)


def test_tail_bound_formula(sys_b):
    rep = coboundary_test(sys_b, J_trunc=20, tol=1e-6)
    lam = 2.0
    c4 = np.pi / 3
    assert rep["tail_bound"] == pytest.approx(
        c4 * lam ** -20.0 / (1 - 1 / lam), rel=1e-6)


def test_trichotomy_consistency(sys_a, sys_b, sys_lin, eig_a, eig_b, eig_lin):
    for s, e, cob in ((sys_a, eig_a, True), (sys_lin, eig_lin, True),
                      (sys_b, eig_b, False)):
        rep = coboundary_test(s, J_trunc=40, tol=1e-6)
        a = a_sequence(s, e, 6, grid=64)
        b = b_sequence(s, e, 6, grid=64)
        a_one = np.allclose(a, 1.0, atol=1e-6)
        b_one = np.allclose(b, 1.0, atol=1e-6)
        assert rep["cohomologous"] == cob == a_one == b_one


# -- quantitative pointwise UNI ------------------------------------------------------


def test_uni_from_transversality_sys_b(sys_b):
    rep = uni_from_transversality(sys_b, delta=0.05, b=1000.0, beta=1.0)
    assert rep["n2"] == 4
    assert rep["n1"] == 6
    assert not rep["no_pair_everywhere"]
    assert rep["pass_rate"] == 1.0
    assert rep["worst_margin"] >= 0.0


def test_uni_from_transversality_degenerate(sys_a):
    rep = uni_from_transversality(sys_a, delta=0.05, b=1000.0, beta=1.0)
    assert rep["no_pair_everywhere"]


def test_a_negative_prefix_length_is_refused(sys_b):
    # |b| < 1 gives n1 = floor(beta log |b|) < 0, where the greedy prefix
    # is empty: at b = 0.5 the report read n1 = -1 and n = 3 beside pairs
    # of depth-4 words, and the audit failed
    tails = transversal_scales(sys_b, 0.05)[2]
    with pytest.raises(FrequencyTooSmallError, match="n1 = -1"):
        transversal_pair(sys_b, tails, -1, 0.3)
    with pytest.raises(FrequencyTooSmallError):
        uni_from_transversality(sys_b, delta=0.05, b=0.5, beta=1.0)


def test_tableau_weights_are_mu_sigma_jacobians(sys_b):
    # at sigma != 0 the weights carry exp(-sigma S_n r): they are the inverse
    # Jacobians of mu_sigma, as jacobian_weight computes them per word
    eig = eigendata(sys_b, 0.5, N=256)
    ys = np.linspace(1e-9, 1 - 1e-9, 37)
    words = word_array(sys_b, 4)
    [(_, _, lo, _, wgt)] = _tableau_runs(sys_b, eig, words, ys)
    # SYS-B's branches are full: every word is admissible at every y
    assert np.isfinite(lo).all()
    ref = np.array([jacobian_weight(sys_b, eig, tuple(w), ys)[0]
                    for w in words])
    assert np.max(np.abs(wgt - ref / ref.sum(axis=0))) < 1e-13
