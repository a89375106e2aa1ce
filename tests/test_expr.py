import math
import random

import numpy as np
import pytest

from gibbsflow.expr import (
    Add, Call, DomainError, Div, Mul, Neg, Num, ParseError, Pi, Pow, Sub,
    UnknownIdentifierError, Var, compile_expr, differentiate, evaluate, parse,
    to_str,
)


def test_parse_basic_shapes():
    assert parse("2*x") == Mul(Num(2.0), Var("x"))
    assert parse("x^2") == Pow(Var("x"), 2)
    assert parse("-x") == Neg(Var("x"))
    assert parse("sin(pi*x)") == Call("sin", Mul(Pi(), Var("x")))
    assert parse("(2+cos(2*pi*x))/3") == Div(
        Add(Num(2.0), Call("cos", Mul(Mul(Num(2.0), Pi()), Var("x")))), Num(3.0))


def test_left_associativity():
    assert parse("1-2-3") == Sub(Sub(Num(1.0), Num(2.0)), Num(3.0))
    assert parse("8/4/2") == Div(Div(Num(8.0), Num(4.0)), Num(2.0))


def test_precedence():
    assert parse("1+2*x^3") == Add(Num(1.0), Mul(Num(2.0), Pow(Var("x"), 3)))


def test_evaluate_matches_reference():
    e = parse("(2+cos(2*pi*x))/3")
    for x in (0.0, 0.25, 0.7, 1.0):
        assert evaluate(e, x) == pytest.approx((2 + math.cos(2 * math.pi * x)) / 3,
                                               rel=1e-14)
    # spec example value
    assert evaluate(parse("(2+cos(2*pi*x))/3"), 0.0) == pytest.approx(1.0)


def test_evaluate_vectorized():
    e = parse("2*x-1")
    xs = np.linspace(0, 1, 11)
    assert np.allclose(evaluate(e, xs), 2 * xs - 1)


def test_syntax_error_offset():
    with pytest.raises(ParseError) as ei:
        parse("2*x +")
    assert ei.value.offset == 6


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("2*y")
    with pytest.raises(UnknownIdentifierError):
        parse("tan(x)")


def test_log_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("log(x-1)"), 0.5)


def test_multivariable_parse():
    e = parse("cos(2*pi*u)+x", variables=("x", "u"))
    assert evaluate(e, x=0.5, u=0.0) == pytest.approx(1.5)
    with pytest.raises(UnknownIdentifierError):
        parse("u", variables=("x",))


def _random_expr(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice([
            Num(round(rng.uniform(0.1, 5.0), 3)), Var("x"), Pi(),
        ])
    kind = rng.randrange(7)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if kind == 0:
        return Add(a, b)
    if kind == 1:
        return Sub(a, b)
    if kind == 2:
        return Mul(a, b)
    if kind == 3:
        return Div(a, Add(Pow(b, 2), Num(1.0)))  # keep denominators positive
    if kind == 4:
        return Pow(a, rng.randrange(0, 4))
    if kind == 5:
        return Neg(a)
    return Call(rng.choice(["sin", "cos", "exp"]), a)


def test_roundtrip_print_parse_1000():
    rng = random.Random(7)
    for _ in range(1000):
        e = _random_expr(rng, rng.randrange(1, 5))
        assert parse(to_str(e)) == e


def test_derivative_against_finite_differences():
    # oracle: central differences at h=1e-6, relative tolerance 1e-6
    rng = random.Random(13)
    checked = 0
    while checked < 300:
        e = _random_expr(rng, rng.randrange(1, 5))
        de = differentiate(e)
        x = rng.uniform(0.1, 0.9)
        h = 1e-6
        try:
            fd = (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h)
            ex = evaluate(de, x)
        except (DomainError, OverflowError):
            continue
        if not (np.isfinite(fd) and np.isfinite(ex)) or abs(fd) > 1e6:
            continue
        assert ex == pytest.approx(fd, rel=1e-5, abs=1e-5)
        checked += 1


def test_derivative_closed_forms():
    assert differentiate(parse("x^3")) == Mul(Num(3.0), Pow(Var("x"), 2))
    d = differentiate(parse("sin(2*x)"))
    assert evaluate(d, 0.3) == pytest.approx(2 * math.cos(0.6), rel=1e-14)
    d2 = differentiate(parse("(2+cos(2*pi*x))/3"))
    x = 0.2
    assert evaluate(d2, x) == pytest.approx(
        -2 * math.pi * math.sin(2 * math.pi * x) / 3, rel=1e-12)


def test_negative_power_at_scalar_zero_is_inf():
    f = compile_expr(parse("x^-1"))
    assert f(x=0.0) == math.inf
    assert np.all(f(x=np.zeros(3)) == math.inf)
    assert compile_expr(parse("1/x"))(x=0.0) == math.inf


def test_derivative_of_negative_power_round_trips():
    for src in ("x^-1", "x^-3", "(1+x)^-2"):
        d = differentiate(parse(src))
        assert parse(to_str(d)) == d
    d = differentiate(parse("x^-1"))
    assert evaluate(d, 2.0) == pytest.approx(-0.25, rel=1e-15)
