"""System pieces: one compiled ``Piece`` per branch, roof and potential, and
the exponent phi - s r of P_s formed once, in ``MarkovSystem.log_weight``."""

import numpy as np
import pytest

from conftest import NL_DOUBLING, to_config
from gibbsflow.expr import parse
from gibbsflow.gibbs import _backward_step
from gibbsflow.operator import eigendata, node_grid, transfer_matrix
from gibbsflow.presets import make_preset
from gibbsflow.system import (Piece, potential_seminorm, symbol_pullbacks,
                              system_from_config, word_array)


def _bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + a.tobytes()


def test_a_piece_returns_arrays_shaped_like_x():
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    const = Piece(parse("log(0.3)"))
    v = const.value(x=x)
    assert v.shape == x.shape and np.all(v == np.log(0.3))
    assert v.strides == (0, 0)  # a view of the one value, not copies
    assert const.slope == 0.0 and np.all(const.deriv(x=x) == 0.0)
    assert const.value(x=0.5).shape == ()
    # affine pieces whose derivative is not folded to one number are
    # affine all the same
    for src, slope in (("2*x", 2.0), ("2-2*x", -2.0), ("1-x/2", -0.5)):
        p = Piece(parse(src))
        assert p.slope == slope
        assert p.deriv(x=x).shape == x.shape and np.all(p.deriv(x=x) == slope)
    nonlinear = Piece(parse("(2+cos(2*pi*x))/3"))
    assert nonlinear.slope is None
    assert np.array_equal(nonlinear.value(x=x), (2 + np.cos(2 * np.pi * x)) / 3)


def test_a_decreasing_affine_branch_takes_the_one_step_inverse():
    sys = system_from_config({
        "partition": [0.0, 0.5, 1.0],
        "branches": [{"expr": "2*x", "image": [0, 2]},
                     {"expr": "2-2*x", "image": [0, 2]}],
        "roof": ["1", "1"], "potential": ["0", "0"]})
    y = np.random.default_rng(3).random(1000)
    mid = 0.75
    want = mid - (float(sys.T[1].value(x=mid)) - y) / -2.0
    assert np.array_equal(sys.inverse_branch(1, y), want)
    assert sys._inverse_starts[1] == 0.5  # T(3/4), not a Hermite table


@pytest.mark.parametrize(
    "cfg", [NL_DOUBLING, to_config(make_preset("SYS-C-NLROOF"))],
    ids=["NL-DOUBLING", "SYS-C-NLROOF"])
def test_sigma_zero_reads_no_roof(cfg, expr_calls):
    # phi - 0 r is phi to the bit, so at sigma = 0 no roof value is read:
    # the outputs equal those of a twin whose every roof read raises
    sys = system_from_config(cfg)
    twin = system_from_config({**cfg, "roof": ["log(x-2)"] * len(cfg["roof"])})
    x = np.linspace(0.0, 1.0, 101, endpoint=False)
    words = word_array(sys, 3)
    expr_calls.clear()
    outputs = []
    for s in (sys, twin):
        eig = eigendata(s, 0.0, N=64)
        ys = node_grid(s, 64).reshape(-1)
        [(blocks, norm)] = symbol_pullbacks(
            s, words, ys, s.transition[:, s.element_of(ys)], ("J",), eig)
        outputs.append([transfer_matrix(s, 0.0, 64).toarray(),
                        potential_seminorm(s, 0.0), *_backward_step(s, eig, x),
                        norm, *[pb.J for _, _, pb in blocks]])
    assert expr_calls.of([p.expr for p in sys.r]) == 0
    for got, want in zip(*outputs):
        assert _bits(got) == _bits(want)


def test_log_weight_reads_the_roof_once(expr_calls):
    sys = system_from_config(NL_DOUBLING)
    y = np.linspace(0.0, 0.5, 33)
    g, r = sys.log_weight(0, 0.5 + 2j, y)
    assert expr_calls.of([sys.r[0].expr]) == 1
    assert _bits(r) == _bits(sys.r[0].value(x=y))
    assert _bits(g) == _bits(sys.phi[0].value(x=y) - (0.5 + 2j) * r)
    g0, r0 = sys.log_weight(0, 0.0, y)
    assert r0 is None and _bits(g0) == _bits(sys.phi[0].value(x=y))


def test_the_engine_reads_each_piece_once_per_block(expr_calls):
    # S_n r and J at sigma != 0 share one roof read per prepended block
    sys = system_from_config(NL_DOUBLING)
    eig = eigendata(sys, 0.5, N=64)
    words = word_array(sys, 3)
    ys = np.linspace(0.0, 1.0, 17)
    holds = np.ones((sys.m, len(ys)), dtype=bool)
    expr_calls.clear()
    for _ in symbol_pullbacks(sys, words, ys, holds, ("x", "Snr", "J"), eig):
        pass
    # per last symbol s, one block per first symbol at each depth: (s),
    # then (0 s) and (1 s), then (0 . s) and (1 . s); each block is one
    # seeded solve, so one evaluation of T
    blocks = sys.m * (1 + 2 + 2)
    assert expr_calls.of([p.expr for p in sys.r]) == blocks
    assert expr_calls.of([p.expr for p in sys.phi]) == blocks
    assert expr_calls.of([p.expr for p in sys.T]) == blocks
