"""The model expression language: parsing, algebra, compilation.

Proves:
  1.  Grammar shape: ^ is right-associative and binds tighter than unary
      minus, +/- are left-associative, parentheses and whitespace are
      free, numbers accept scientific notation
  2.  Malformed input raises ExprSyntaxError carrying the offending
      0-based position
  3.  Identifier classification: declared variables become Var, anything
      else becomes Param, and params_of/variables_of report them
  4.  substitute binds parameters and folds constant subtrees (including
      exp) without touching non-constant structure
  5.  the tree-walking reference evaluator kept here (the oracle for
      compile_fn) matches direct arithmetic and raises ModelError on
      unbound names
  6.  compile_fn produces vectorised callables that broadcast constants
      and expressions without the first variable to the first argument's
      shape, keep the argument's shape otherwise, and reject stray
      variables, unbound parameters and constants that are inf or NaN,
      parsed or folded
  7.  render emits text that re-parses to the identical tree (property
      test over random trees)
"""

import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebound.errors import ExprSyntaxError, ModelError
from wavebound.expr import (
    BinOp,
    Call,
    Const,
    Neg,
    Param,
    Var,
    compile_fn,
    params_of,
    parse,
    render,
    substitute,
    variables_of,
)


_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


def evaluate(e, env):
    """Tree-walking reference evaluation, independent of compile_fn's codegen.

    env supplies variables and parameters; a missing name raises ModelError.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (Var, Param)):
        try:
            return env[e.name]
        except KeyError:
            kind = "variable" if isinstance(e, Var) else "parameter"
            raise ModelError(f"unbound {kind} {e.name!r}") from None
    if isinstance(e, Neg):
        return -evaluate(e.operand, env)
    if isinstance(e, BinOp):
        return _OPS[e.op](evaluate(e.left, env), evaluate(e.right, env))
    if isinstance(e, Call):
        return np.exp(evaluate(e.arg, env))
    raise TypeError(f"not an expression node: {e!r}")


def ev(text, **env):
    return evaluate(parse(text, variables=tuple(env)), env)


# -- 1. grammar ---------------------------------------------------------


def test_power_right_associative():
    assert ev("2^3^2") == 512.0
    assert ev("(2^3)^2") == 64.0


def test_subtraction_left_associative():
    assert ev("2-3-4") == -5.0
    assert ev("2-(3-4)") == 3.0


def test_unary_minus_binds_looser_than_power():
    # -u^2 must mean -(u^2)
    assert ev("-u^2", u=3.0) == -9.0
    assert ev("(-u)^2", u=3.0) == 9.0


def test_unary_minus_allowed_in_exponent():
    assert ev("2^-2") == 0.25


def test_whitespace_and_scientific_notation():
    assert ev("  1.5e2 *  u ", u=2.0) == 300.0
    assert ev(".5 + 2.", u=0.0) == 2.5


def test_exp_call():
    assert ev("exp(-u)", u=1.0) == pytest.approx(math.exp(-1.0))


# -- 2. syntax errors ---------------------------------------------------


def test_error_positions():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("u +")
    assert exc.value.pos == 3

    with pytest.raises(ExprSyntaxError) as exc:
        parse("u ? 1")
    assert exc.value.pos == 2

    with pytest.raises(ExprSyntaxError) as exc:
        parse("sin(u)")
    assert exc.value.pos == 0
    assert "sin" in str(exc.value)

    with pytest.raises(ExprSyntaxError) as exc:
        parse("(u + 1")
    assert exc.value.pos == 6

    with pytest.raises(ExprSyntaxError):
        parse("u 1")  # trailing token after a complete expression


# -- 3. identifier classification ---------------------------------------


def test_vars_and_params():
    tree = parse("a * u1 * (1 - u1 - lambda * u2)", variables=("u1", "u2"))
    assert variables_of(tree) == {"u1", "u2"}
    assert params_of(tree) == {"a", "lambda"}


def test_same_name_is_param_without_declaration():
    tree = parse("u1 + u2")  # scalar context: only "u" is a variable
    assert variables_of(tree) == set()
    assert params_of(tree) == {"u1", "u2"}


# -- 4. substitution and folding ----------------------------------------


def test_substitute_binds_and_folds():
    tree = parse("a * u + 2 * 3", variables=("u",))
    out = substitute(tree, {"a": 1.5})
    assert params_of(out) == set()
    # the constant product folds to a single node
    assert BinOp("*", Const(2.0), Const(3.0)) not in _subtrees(out)
    assert Const(6.0) in _subtrees(out)
    assert evaluate(out, {"u": 2.0}) == 9.0


def test_substitute_folds_exp_of_constant():
    out = substitute(parse("exp(0) * u"), {})
    assert Const(1.0) in _subtrees(out)
    assert not any(isinstance(n, Call) for n in _subtrees(out))


def test_substitute_keeps_structural_zero():
    # 0 * u2 is not constant, so it must survive (this is how a test can
    # force the general solver path on a secretly-constant coefficient)
    out = substitute(parse("1 + 0 * u2", variables=("u1", "u2")), {})
    assert variables_of(out) == {"u2"}


def _subtrees(e):
    out = [e]
    if isinstance(e, Neg):
        out += _subtrees(e.operand)
    elif isinstance(e, BinOp):
        out += _subtrees(e.left) + _subtrees(e.right)
    elif isinstance(e, Call):
        out += _subtrees(e.arg)
    return out


# -- 5. evaluation ------------------------------------------------------


def test_evaluate_matches_arithmetic():
    tree = parse("D0 * (1 - u)^m * exp(r * u)")
    env = {"D0": 0.7, "m": 2.5, "r": -0.3, "u": 0.4}
    want = 0.7 * (1 - 0.4) ** 2.5 * math.exp(-0.3 * 0.4)
    assert evaluate(tree, env) == pytest.approx(want, rel=1e-15)


def test_evaluate_unbound_raises():
    with pytest.raises(ModelError, match="unbound parameter 'a'"):
        evaluate(parse("a * u"), {"u": 1.0})
    with pytest.raises(ModelError, match="unbound variable 'u'"):
        evaluate(parse("2 * u"), {})


# -- 6. compilation -----------------------------------------------------


def test_compile_fn_vectorised():
    fn = compile_fn(parse("m * u * (1 - u)"), params={"m": 2.0})
    u = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(fn(u), 2.0 * u * (1.0 - u), rtol=1e-15)


def test_compile_fn_broadcasts_constants():
    fn = compile_fn(parse("1"), variables=("u",))
    out = fn(np.zeros(5))
    assert out.shape == (5,)
    assert np.all(out == 1.0)


def test_compile_fn_broadcasts_without_first_variable():
    fn = compile_fn(parse("1 - u2", ("u1", "u2")), variables=("u1", "u2"))
    u = np.linspace(0.0, 1.0, 5)
    np.testing.assert_array_equal(fn(u, 0.25), np.full(5, 0.75))
    np.testing.assert_array_equal(fn(0.5, u), 1.0 - u)


def test_compile_fn_keeps_argument_shape():
    fn = compile_fn(parse("u1*(1 - u1)", ("u1", "u2")), variables=("u1", "u2"))
    u = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    np.testing.assert_array_equal(fn(u, 0.5), u * (1.0 - u))
    assert fn(u, np.zeros(3)).shape == (2, 3)
    assert np.ndim(fn(0.5, 0.0)) == 0


def test_compile_fn_rejects_stray_names():
    with pytest.raises(ModelError, match="unbound parameters: a"):
        compile_fn(parse("a * u"))
    with pytest.raises(ModelError, match="allowed variables"):
        compile_fn(parse("u1 * u2", variables=("u1", "u2")), variables=("u1",))


@pytest.mark.parametrize(
    "text, params, value",
    [
        ("u*(1 - u)*1e400", {}, "inf"),
        ("1e308*10 + u", {}, "inf"),
        ("u*(1e308*10 - 1e308*10)", {}, "nan"),
        ("u*exp(1000)", {}, "inf"),
        ("a*u", {"a": -math.inf}, "-inf"),
    ],
)
def test_compile_fn_rejects_non_finite_constants(text, params, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error alone, no overflow warning
        with pytest.raises(ModelError, match=f"constant {value} is not finite"):
            compile_fn(parse(text), params=params)


# -- 7. render/parse round trip -----------------------------------------


def _exprs():
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Const),
        st.integers(min_value=0, max_value=9).map(lambda n: Const(float(n))),
        st.sampled_from(["u"]).map(Var),
        st.sampled_from(["a", "b", "m"]).map(Param),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.builds(Call, st.just("exp"), children),
            st.builds(
                BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_render_parse_round_trip(tree):
    assert parse(render(tree)) == tree
