import json
import math

import numpy as np
import pytest

from gibbsflow.gibbs import _jacobian_weight, cylinder_masses
from gibbsflow.operator import deep_apply, eigendata, node_grid
from gibbsflow.presets import make_preset, preset_names
from gibbsflow.system import (
    Branch, CapExceededError, NoConvergenceError, NotCoveringError,
    NotExpandingError, NotMarkovError, OutsideImageError, admissible_words,
    birkhoff_sum, branch_chain, cylinders, pullback, system_from_config,
    validate, word_array,
)
from gibbsflow.expr import parse

def test_presets_validate():
    for name in preset_names():
        rep = validate(make_preset(name))
        assert rep.expansion > 1
        assert rep.roof_inf > 0 and rep.roof_sup <= 1 + 1e-12


def test_sys_a_constants():
    rep = validate(make_preset("SYS-A"))
    assert rep.expansion == pytest.approx(2.0, abs=1e-12)
    assert rep.rho == pytest.approx(2.0, abs=1e-12)
    assert rep.c4 == pytest.approx(0.0, abs=1e-14)
    assert rep.c2 == pytest.approx(0.0, abs=1e-10)


def test_sys_b_c4():
    # sup |D(r o h)| = sup |r'| / inf |T'| = (2 pi / 3) / 2 = pi / 3
    rep = validate(make_preset("SYS-B"))
    assert rep.c4 == pytest.approx(math.pi / 3, rel=1e-5)


def test_sys_c_structure():
    sys = make_preset("SYS-C")
    rep = validate(sys)
    assert rep.expansion == pytest.approx(2.0, abs=1e-12)
    assert rep.rho == pytest.approx(3.0, abs=1e-12)
    # depth-2 words: 11,12,13 from symbol 0; 22,23 from symbol 1; 31,32 from 2
    words = sorted(c.word for c in cylinders(sys, 2))
    assert words == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1)]


def test_not_expanding_rejected():
    with pytest.raises(NotExpandingError):
        validate(_bad_system("x/2+1/4", (0, 2)))


def test_not_markov_rejected():
    with pytest.raises(NotMarkovError):
        validate(_bad_system("2*x+1/10", (0, 2)))


def _bad_system(expr0, image0):
    return system_from_config({
        "partition": [0, 0.5, 1],
        "branches": [{"expr": expr0, "image": list(image0)},
                     {"expr": "2*x-1", "image": [0, 2]}],
        "roof": ["1", "1"],
        "potential": ["0", "0"],
    })


def test_config_roundtrip():
    sys = make_preset("SYS-B")
    sys2 = system_from_config(json.loads(json.dumps(sys.to_config())))
    xs = np.linspace(0, 0.999, 101)
    assert np.allclose(sys.apply_T(xs), sys2.apply_T(xs))
    assert np.allclose(sys.roof_at(xs), sys2.roof_at(xs))


def test_unknown_config_key_rejected():
    cfg = make_preset("SYS-A").to_config()
    cfg["extra"] = 1
    with pytest.raises(NotMarkovError):
        system_from_config(cfg)


def test_cylinders_partition_unit_interval():
    for name in ("SYS-A", "SYS-C"):
        sys = make_preset(name)
        for n in (1, 2, 3, 5):
            cs = cylinders(sys, n)
            # consecutive cylinders tile [0,1]
            assert cs[0].left == pytest.approx(0.0, abs=1e-12)
            assert cs[-1].right == pytest.approx(1.0, abs=1e-12)
            for a, b in zip(cs, cs[1:]):
                assert a.right == pytest.approx(b.left, abs=1e-12)


def test_cylinder_count_sys_a():
    sys = make_preset("SYS-A")
    assert len(cylinders(sys, 8)) == 256
    with pytest.raises(CapExceededError):
        cylinders(sys, 25, cap=1000)


def test_inverse_branch_residual():
    sys = make_preset("SYS-C")
    for i in range(3):
        lo, hi = sys.image_interval(i)
        ys = np.linspace(lo, hi, 57)
        zs = sys.inverse_branch(i, ys)
        assert np.max(np.abs(sys._T[i](x=zs) - ys)) < 1e-12
        a, b = sys.element_interval(i)
        assert np.all(zs >= a - 1e-12) and np.all(zs <= b + 1e-12)


def test_branch_chain_consistency():
    sys = make_preset("SYS-B")
    word = (0, 1, 1, 0)
    ys = np.linspace(0.05, 0.95, 11)
    ch = branch_chain(sys, word, ys)
    x = ch["x"]
    # forward orbit of x reproduces y and the itinerary
    z = x.copy()
    for sym in word:
        assert np.all(sys.element_of(z) == sym)
        z = sys.apply_T(z)
    assert np.allclose(z, ys, atol=1e-10)
    # S_n r matches birkhoff_sum; derivative matches finite differences
    assert np.allclose(ch["Snr"], birkhoff_sum(sys, "roof", x, 4), atol=1e-10)
    h = 1e-6
    chp = branch_chain(sys, word, ys + h)
    chm = branch_chain(sys, word, ys - h)
    fd = (chp["Snr"] - chm["Snr"]) / (2 * h)
    assert np.allclose(ch["DSnr_h"], fd, rtol=1e-5, atol=1e-7)


def test_birkhoff_sum_doubling():
    sys = make_preset("SYS-A")
    assert birkhoff_sum(sys, "roof", 0.1, 5) == pytest.approx(5.0)
    # potential log p / log (1-p): S_3 phi counts symbols
    sysb = make_preset("SYS-A-BERNOULLI")
    x = 0.3  # orbit 0.3 -> 0.6 -> 0.2: symbols 0, 1, 0
    expect = math.log(0.3) + math.log(0.7) + math.log(0.3)
    assert birkhoff_sum(sysb, "potential", x, 3) == pytest.approx(expect, rel=1e-9)


def test_inverse_branch_refuses_point_outside_image():
    sys = make_preset("SYS-B")
    with pytest.raises(OutsideImageError):
        sys.inverse_branch(0, np.array([0.2, 1.5]))
    # within 1e-12 of the element width the point is accepted
    z = sys.inverse_branch(0, np.array([1.0 + 1e-13]))
    assert z[0] == pytest.approx(0.5, abs=1e-12)


def test_inverse_branch_refuses_unconverged_newton():
    # the +1e5-1e5 round trip leaves a residual far above the 1e-13 tolerance
    sys = system_from_config({
        "partition": [0, 0.5, 1],
        "branches": [{"expr": "2*x+100000-100000", "image": [0, 2]},
                     {"expr": "2*x-1", "image": [0, 2]}],
        "roof": ["1", "1"],
        "potential": ["0", "0"],
    })
    with pytest.raises(NoConvergenceError):
        sys.inverse_branch(0, np.array([0.3]))


# -- the pullback engine against a per-word loop ---------------------------------


def _chain_oracle(sys, word, y):
    """Solve the n levels of one word from y, then sum forward from x."""
    n = len(word)
    z = [None] * n + [y]
    for j in range(n - 1, -1, -1):
        z[j] = sys.inverse_branch(word[j], z[j + 1])
    zero = np.zeros_like(y)
    dTj, snr, snphi, dsnr = zero + 1.0, zero, zero, zero
    for j, i in enumerate(word):
        dsnr = dsnr + (sys._dr[i](x=z[j]) + zero) * dTj
        snr = snr + sys._r[i](x=z[j])
        snphi = snphi + sys._phi[i](x=z[j])
        dTj = dTj * (sys._dT[i](x=z[j]) + zero)
    return {"x": z[0], "dTn": dTj, "Snr": snr, "Snphi": snphi,
            "DSnr_h": dsnr / dTj}


def _close(got, want, rel=1e-13):
    scale = max(float(np.max(np.abs(want))), 1.0)
    assert np.max(np.abs(got - want)) <= rel * scale


SYSTEMS = preset_names() + ["NL-DOUBLING"]


def _system(name, nl_doubling):
    return nl_doubling if name == "NL-DOUBLING" else make_preset(name)


@pytest.mark.parametrize("name", SYSTEMS)
def test_pullback_engine_matches_per_word_chains(name, nl_doubling):
    sys = _system(name, nl_doubling)
    for n in range(1, 7):
        words = word_array(sys, n)
        assert [tuple(w) for w in words.tolist()] == admissible_words(sys, n)
        for s in range(sys.m):
            ws = words[words[:, -1] == s]
            ys = np.linspace(*sys.image_interval(s), 7)
            pb = pullback(sys, ws, ys)
            for a, w in enumerate(ws.tolist()):
                want = _chain_oracle(sys, tuple(w), ys)
                for field, value in want.items():
                    _close(getattr(pb, field)[a], value)


def test_pullback_engine_rejects_unsorted_words():
    sys = make_preset("SYS-B")
    with pytest.raises(ValueError):
        pullback(sys, [(1, 0), (0, 0)], np.array([0.5]))


@pytest.mark.parametrize("name,sigma", [("SYS-C-NLROOF", 0.5),
                                        ("SYS-A-BERNOULLI", 0.0),
                                        ("NL-DOUBLING", 0.0)])
def test_cylinder_masses_match_per_word_jacobians(name, sigma, nl_doubling):
    sys = _system(name, nl_doubling)
    eig = eigendata(sys, sigma, N=64)
    nodes = node_grid(sys, eig.N)
    table = cylinder_masses(sys, eig, 6)
    raw = {}
    norm = np.zeros((sys.m, eig.N))
    for c in table.cylinders:
        lo, hi = sys.branches[c.word[-1]].image
        raw[c.word] = {e: _jacobian_weight(sys, eig, c.word, nodes[e])[0]
                       for e in range(lo, hi)}
        for e, u in raw[c.word].items():
            norm[e] += u
    want = np.array([sum(float(np.dot(eig.mu[e], u / norm[e]))
                         for e, u in raw[c.word].items())
                     for c in table.cylinders])
    _close(table.masses, want)
    assert table.total == pytest.approx(1.0, abs=1e-12)


def test_cylinder_masses_refuse_symbol_without_predecessor():
    # every branch maps onto [0, 2/3): no word continues into [2/3, 1)
    sys = system_from_config({
        "partition": [0, 1 / 3, 2 / 3, 1],
        "branches": [{"expr": "2*x", "image": [0, 2]},
                     {"expr": "2*x-2/3", "image": [0, 2]},
                     {"expr": "2*x-4/3", "image": [0, 2]}],
        "roof": ["1"] * 3,
        "potential": ["0"] * 3,
    })
    with pytest.raises(NotCoveringError):
        cylinder_masses(sys, eigendata(sys, 0.0, N=32), 3)


@pytest.mark.parametrize("name,sigma,b", [("SYS-C-NLROOF", 0.5, 7.0),
                                          ("NL-DOUBLING", 0.0, 30.0)])
def test_deep_apply_matches_per_word_jacobians(name, sigma, b, nl_doubling):
    sys = _system(name, nl_doubling)
    eig = eigendata(sys, sigma, N=64)
    n = 5
    xs = np.linspace(0.0, 1.0, 41)
    fn = lambda z: np.cos(3 * z) + 1j * z
    out = deep_apply(sys, eig, b, n, xs, [
        {"name": "Lv", "fn": fn, "twist": True},
        {"name": "one", "fn": None}])
    idx = sys.element_of(xs)
    for k, x in enumerate(xs):
        total, norm = 0.0, 0.0
        for w in admissible_words(sys, n):
            if not sys.transition[w[-1], idx[k]]:
                continue
            u, ch = _jacobian_weight(sys, eig, w, np.array([x]))
            total += u[0] * np.exp(-1j * b * ch["Snr"][0]) * fn(ch["x"][0])
            norm += u[0]
        _close(out["Lv"][k], total / norm, rel=1e-12)
        assert out["one"][k] == pytest.approx(1.0, abs=1e-14)
        _close(out["weight_sum"][k], norm, rel=1e-12)
