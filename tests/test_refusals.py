"""Refusals that no other test and no benchmark workload step reaches.

Each is a named error the program raises on an input that would otherwise
give garbage or fail deep inside a computation.  One parametrised test per
module states, for each refusal, the input, the error and its message.
"""

import json
import re

import numpy as np
import pytest

from conftest import system
from gibbsflow.cli import main
from gibbsflow.expr import parse
from gibbsflow.flow import BATCHES, correlation, sample_flow_measure
from gibbsflow.gibbs import sample_mu
from gibbsflow.operator import GridFunction, eigendata
from gibbsflow.presets import make_preset
from gibbsflow.system import (MarkovSystem, NotMarkovError, Piece, pullback,
                              system_from_config, validate, word_array)
from gibbsflow.uni import transversal_scales, uni_from_transversality


@pytest.fixture(scope="module")
def eig_b(sys_b):
    return eigendata(sys_b, 0.0, N=32)


def _pieces(*texts):
    return [Piece(parse(t)) for t in texts]


def _markov(partition=(0.0, 0.5, 1.0), images=((0, 2), (0, 2)),
            T=("2*x", "2*x-1"), r=("1", "1"), phi=("0", "0"), alpha=1.0):
    """A MarkovSystem from the doubling map, with one argument replaced."""
    return MarkovSystem(partition, images, _pieces(*T), _pieces(*r),
                        _pieces(*phi), alpha)


# two closed classes, {0, 1} and {2, 3}: every branch is expanding and
# Markov, but no power of the transition matrix is positive
_SPLIT = {"partition": [0.0, 0.25, 0.5, 0.75, 1.0],
          "branches": [{"expr": "2*x", "image": [0, 2]},
                       {"expr": "2*x-0.5", "image": [0, 2]},
                       {"expr": "2*x-0.5", "image": [2, 4]},
                       {"expr": "2*x-1", "image": [2, 4]}],
          "roof": ["1"] * 4, "potential": ["0"] * 4}


@pytest.mark.parametrize("refused,error,message", [
    pytest.param(lambda: _markov(partition=[0.0]), NotMarkovError,
                 "at least two breakpoints", id="one-breakpoint"),
    pytest.param(lambda: _markov(partition=[0.0, 0.5, 0.9]), NotMarkovError,
                 r"span \[0, 1\]", id="short-partition"),
    pytest.param(lambda: _markov(partition=[0.0, 0.6, 0.4, 1.0],
                                 images=[(0, 3)] * 3, T=("x",) * 3,
                                 r=("1",) * 3, phi=("0",) * 3),
                 NotMarkovError, "strictly increasing", id="decreasing"),
    pytest.param(lambda: _markov(r=("1",)), NotMarkovError,
                 "one branch, roof and potential per element",
                 id="one-roof"),
    pytest.param(lambda: _markov(alpha=0.0), ValueError, r"\(0, 1\]",
                 id="alpha-0"),
    pytest.param(lambda: _markov(alpha=1.5), ValueError, r"\(0, 1\]",
                 id="alpha-1.5"),
    pytest.param(lambda: _markov(images=[(0, 2), (1, 3)]), NotMarkovError,
                 r"\(1, 3\) out of bounds", id="image-range"),
    pytest.param(lambda: word_array(system("SYS-B"), 0), ValueError,
                 "depth must be >= 1", id="word-array-depth-0"),
    pytest.param(lambda: pullback(system("SYS-B"), np.empty((1, 0)),
                                  np.array([0.5])),
                 ValueError, "depth must be >= 1", id="pullback-depth-0"),
])
def test_system_refusals(refused, error, message):
    with pytest.raises(error, match=message):
        refused()


def test_validate_names_a_transition_matrix_with_no_positive_power():
    report = validate(system_from_config(_SPLIT))
    assert not report.ok and report.covering_power == 0
    assert report.messages == ["transition matrix has no strictly positive "
                               "power"]


@pytest.mark.parametrize("refused", [
    pytest.param(lambda s: GridFunction(s, np.ones((s.m + 1, 8))),
                 id="rows"),
    pytest.param(lambda s: GridFunction(s, np.ones((s.m, 8))).copy_with(
        np.ones((s.m, 9))), id="copy-with"),
])
def test_operator_refusals(refused, sys_b):
    with pytest.raises(ValueError, match="not one row per element"):
        refused(sys_b)


@pytest.mark.parametrize("name", ["SYS-Z", "sys-a", ""])
def test_presets_refusals(name):
    with pytest.raises(KeyError, match="unknown preset"):
        make_preset(name)


@pytest.mark.parametrize("count", [0, -3])
def test_gibbs_refusals(count, sys_b, eig_b):
    with pytest.raises(ValueError, match="count must be >= 1"):
        sample_mu(sys_b, eig_b, count, seed=0)


@pytest.mark.parametrize("refused,message", [
    pytest.param(lambda s, e: sample_flow_measure(s, e, 0, seed=0),
                 "count must be >= 1", id="no-sample"),
    pytest.param(lambda s, e: correlation(s, e, "x", "x", [0.0, 1.0, 1.0],
                                          BATCHES, seed=0),
                 "strictly increasing", id="repeated-t"),
    pytest.param(lambda s, e: correlation(s, e, "x", "x", [0.0, 2.0, 1.0],
                                          BATCHES, seed=0),
                 "strictly increasing", id="decreasing-t"),
])
def test_flow_refusals(refused, message, sys_b, eig_b):
    with pytest.raises(ValueError, match=message):
        refused(sys_b, eig_b)


@pytest.mark.parametrize("refused,message", [
    # SYS-B's rho is 2, so at delta = 0.9 > 1 / rho, floor(log(1/delta) /
    # log rho) is 0
    pytest.param(lambda s: transversal_scales(s, 0.9), "n2 = 0 below 1",
                 id="n2-0"),
    *[pytest.param(lambda s, d=d: uni_from_transversality(s, d, 64.0, 0.5),
                   r"delta must be in \(0,1\)", id=f"delta-{d}")
      for d in (0.0, 1.0, -0.5, 1.5)],
])
def test_uni_refusals(refused, message, sys_b):
    with pytest.raises(ValueError, match=message):
        refused(sys_b)


@pytest.mark.parametrize("config,message", [
    pytest.param(None, "config file not found", id="missing-file"),
    pytest.param([1, 2], "config must be a JSON object", id="not-an-object"),
    pytest.param({"experiment": "validate", "preset": "SYS-A",
                  "params": [1]}, r"params must be an object \(at /params\)",
                 id="params-not-an-object"),
    pytest.param({"experiment": "validate", "preset": "SYS-Z"},
                 r"unknown preset 'SYS-Z' \(at /preset\)",
                 id="unknown-preset"),
    pytest.param({"experiment": "validate"},
                 r"either a system or a preset is required \(at /system\)",
                 id="no-system"),
])
def test_cli_refusals(config, message, tmp_path, capsys):
    # exit code 1, the message on stderr, and no output directory
    path = tmp_path / "c.json"
    if config is not None:
        path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["validate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert re.search(message, err), err
    assert not out.exists()
