import numpy as np
import pytest

from gibbsflow.operator import eigendata
from gibbsflow.presets import make_preset
from gibbsflow.system import admissible_words, branch_chain
from gibbsflow.uni import (EmptyDomainError, NotSiblingsError, a_sequence,
                           b_sequence, c4_constant, c7_constant, c9_constant,
                           check_uni, coboundary_test, cone_image, psi,
                           transversal, uni_from_transversality)


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
    cs = c7_constant(sys_a)
    assert cs["C4"] == 0.0
    assert cs["C7"] == 0.0


def test_sys_b_c4_closed_form(sys_b):
    # r = (2 + cos 2 pi x)/3, |r'| <= 2 pi / 3, |T'| = 2: C4 = pi/3
    assert c4_constant(sys_b) == pytest.approx(np.pi / 3, rel=1e-6)


def test_sys_b_c7_closed_form(sys_b):
    # max{2 C4 rho / (1 - 1/lam), (1 - 1/lam) C4} with lam = rho = 2
    cs = c7_constant(sys_b)
    assert cs["C7"] == pytest.approx(8 * np.pi / 3, rel=1e-6)


def test_c9_dominates_observed_holder_ratio(sys_b):
    from gibbsflow.system import validate
    rep = validate(sys_b)
    c9 = c9_constant(sys_b, rep.c2)
    xs = np.linspace(0.0, 1.0, 400)
    for n in (1, 2, 3):
        for w1 in admissible_words(sys_b, n):
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


def test_psi_empty_domain_rejected():
    # branches 0 and 1 have images [0,1/2) and [1/2,1) meeting only at 1/2
    from gibbsflow.expr import parse
    from gibbsflow.system import Branch, MarkovSystem
    s = MarkovSystem(
        [0.0, 0.2, 0.5, 1.0],
        [Branch(parse("2.5*x"), (0, 2)),
         Branch(parse("(5/3)*(x-0.2)+0.5"), (2, 3)),
         Branch(parse("2*x-1"), (0, 3))],
        [parse("1")] * 3,
        [parse("0")] * 3,
    )
    with pytest.raises(EmptyDomainError):
        psi(s, (0,), (1,))


def test_psi_derivative_bounded_by_c7(sys_b):
    c7 = c7_constant(sys_b)["C7"]
    ys = np.linspace(0.0, 1.0, 200)
    for n in (1, 2, 3, 4):
        words = admissible_words(sys_b, n)
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                p = psi(sys_b, words[i], words[j])
                assert np.max(np.abs(p.deriv(ys))) <= c7 * (1 + 1e-9)


# -- cone images and transversality -------------------------------------------------


def test_cone_image_constant_roof_degenerate(sys_a):
    lo, hi = cone_image(sys_a, 0.3, 4)
    assert lo == pytest.approx(0.0, abs=1e-15)
    assert hi == pytest.approx(0.0, abs=1e-15)


def test_cone_image_width_matches_jacobian(sys_b):
    c7 = c7_constant(sys_b)["C7"]
    lo, hi = cone_image(sys_b, 0.2, 3)
    assert hi - lo == pytest.approx(2 * c7 / 8, rel=1e-9)  # |DT^3| = 8


def test_transversal_requires_siblings(sys_b):
    with pytest.raises(NotSiblingsError):
        transversal(sys_b, 0.1, 0.3, 1)


def test_constant_roof_never_transversal(sys_a):
    # degenerate intervals {0} touch, and closed intervals touching are
    # counted as non-transversal
    assert transversal(sys_a, 0.2, 0.7, 1) is False


def test_sys_b_has_a_transversal_sibling_pair(sys_b):
    c7 = c7_constant(sys_b)["C7"]
    found = False
    for n in (3, 4, 5):
        ys = np.linspace(0.05, 0.95, 7)
        for y in ys:
            words = admissible_words(sys_b, n)
            xs = [float(branch_chain(sys_b, w, np.array([y]))["x"][0])
                  for w in words]
            for i in range(len(xs)):
                for j in range(i + 1, len(xs)):
                    if transversal(sys_b, xs[i], xs[j], n, c7):
                        found = True
    assert found


def test_check_uni_positive_for_sys_b(sys_b):
    rep = check_uni(sys_b, 2, R=0.1, grid=256)
    assert rep["D_full"] > 0.0
    assert rep["D_point"] > 0.0


def test_check_uni_zero_for_constant_roof(sys_a):
    rep = check_uni(sys_a, 2, R=0.1, grid=128)
    assert rep["D_full"] == 0.0
    assert rep["D_point"] == 0.0


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


# -- coboundary test -------------------------------------------------------------


def test_constant_roof_is_coboundary(sys_a):
    rep = coboundary_test(sys_a)
    assert rep["cohomologous"]
    assert rep["residual"] < 1e-9
    assert rep["chi"][0] == pytest.approx(1.0, abs=1e-9)
    assert rep["chain_deviation"] < 1e-9


def test_linear_roof_coboundary_closed_form(sys_lin):
    # r = 1 - x/2 = theta o T - theta + chi with theta = -x/2,
    # chi = 1 on [0, 1/2) and 1/2 on [1/2, 1)
    rep = coboundary_test(sys_lin)
    assert rep["cohomologous"]
    assert rep["residual"] < 1e-8
    assert rep["chi"][0] == pytest.approx(1.0, abs=1e-8)
    assert rep["chi"][1] == pytest.approx(0.5, abs=1e-8)


def test_sys_b_is_not_coboundary(sys_b):
    rep = coboundary_test(sys_b)
    assert not rep["cohomologous"]
    assert rep["residual"] > 10 * rep["tol"]


def test_coboundary_residual_stable_under_truncation(sys_b):
    r20 = coboundary_test(sys_b, J_trunc=20)["residual"]
    r40 = coboundary_test(sys_b, J_trunc=40)["residual"]
    assert r40 == pytest.approx(r20, rel=1e-4)


def test_tail_bound_formula(sys_b):
    rep = coboundary_test(sys_b, J_trunc=20)
    lam = 2.0
    c4 = np.pi / 3
    assert rep["tail_bound"] == pytest.approx(
        c4 * lam ** -20.0 / (1 - 1 / lam), rel=1e-6)


def test_trichotomy_consistency(sys_a, sys_b, sys_lin, eig_a, eig_b, eig_lin):
    for s, e, cob in ((sys_a, eig_a, True), (sys_lin, eig_lin, True),
                      (sys_b, eig_b, False)):
        rep = coboundary_test(s)
        a = a_sequence(s, e, 6, grid=64)
        b = b_sequence(s, e, 6, grid=64)
        a_one = np.allclose(a, 1.0, atol=1e-6)
        b_one = np.allclose(b, 1.0, atol=1e-6)
        assert rep["cohomologous"] == cob == a_one == b_one


# -- quantitative pointwise UNI ------------------------------------------------------


def test_uni_from_transversality_sys_b(sys_b):
    rep = uni_from_transversality(sys_b, delta=0.05, b=1000.0)
    assert rep["n2"] == 4
    assert rep["n1"] == 6
    assert not rep["no_pair_everywhere"]
    assert rep["pass_rate"] == 1.0
    assert rep["worst_margin"] >= 0.0


def test_uni_from_transversality_degenerate(sys_a):
    rep = uni_from_transversality(sys_a, delta=0.05, b=1000.0)
    assert rep["no_pair_everywhere"]


def test_tableau_weights_are_mu_sigma_jacobians(sys_b):
    # at sigma != 0 the weights carry exp(-sigma S_n r): they are the inverse
    # Jacobians of mu_sigma, as gibbs._jacobian_weight computes them per word
    from gibbsflow.gibbs import _jacobian_weight
    from gibbsflow.uni import _preimage_tableau
    eig = eigendata(sys_b, 0.5, N=256)
    ys = np.linspace(1e-9, 1 - 1e-9, 37)
    words, _, _, wgt = _preimage_tableau(sys_b, eig, 4, ys,
                                         c7_constant(sys_b)["C7"])
    ref = np.full(wgt.shape, np.nan)
    for row, word in enumerate(words.tolist()):
        lo, hi = sys_b.image_interval(word[-1])
        cols = (ys >= lo) & (ys <= hi)
        ref[row, cols] = _jacobian_weight(sys_b, eig, tuple(word), ys[cols])[0]
    ref /= np.nansum(ref, axis=0)[None, :]
    assert np.array_equal(np.isnan(wgt), np.isnan(ref))
    assert np.nanmax(np.abs(wgt - ref)) < 1e-13
