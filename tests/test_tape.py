"""Array tape: recorded values, vector-Jacobian products, backward sweep,
and gradient checking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcde.errors import NumericError, StructuralError
from flowcde.tape import (
    Tape,
    Var,
    exp,
    expm1,
    grad_check,
    log,
    log1p,
    logsumexp,
    softplus,
    sqrt,
    square,
    tanh,
)


def leaf(t, value):
    return Var(t, t.leaf(value))


def test_mul_records_value_and_locals():
    t = Tape()
    a = leaf(t, 3.0)
    b = leaf(t, 4.0)
    c = a * b
    assert c.value == 12.0
    g = t.gradient(c.id)
    assert (g[a.id], g[b.id]) == (4.0, 3.0)


def test_unary_locals_at_reference_points():
    t = Tape()
    z = leaf(t, 0.0)
    th = tanh(z)
    assert th.value == 0.0
    assert t.gradient(th.id)[z.id] == 1.0
    sp = softplus(z)
    assert sp.value == pytest.approx(math.log(2.0), abs=1e-15)
    assert t.gradient(sp.id)[z.id] == pytest.approx(0.5, abs=1e-15)
    x = leaf(t, 3.0)
    sq = square(x)
    assert sq.value == 9.0
    assert t.gradient(sq.id)[x.id] == 6.0


def test_backward_simple_chain():
    # f = a*b + a, df/da = b + 1, df/db = a
    t = Tape()
    a = leaf(t, 2.0)
    b = leaf(t, 5.0)
    f = a * b + a
    g = t.gradient(f.id)
    assert g[a.id] == 6.0
    assert g[b.id] == 2.0


def test_backward_tanh_derivative():
    t = Tape()
    x = leaf(t, 1.0)
    y = tanh(x)
    g = t.gradient(y.id)
    assert g[x.id] == pytest.approx(1.0 - math.tanh(1.0) ** 2, rel=1e-15)
    assert g[x.id] == pytest.approx(0.41997434161402614, rel=1e-12)


def test_gradient_of_constant_is_zero():
    t = Tape()
    x = leaf(t, [1.5, -2.0])
    c = leaf(t, 7.0)
    g = t.gradient(c.id)[x.id]
    assert g.shape == (2,) and (g == 0.0).all()


def test_abs_subgradient_at_zero_is_zero():
    t = Tape()
    x = leaf(t, [0.0, -2.0, 3.0])
    y = abs(x)
    assert t.gradient(y.id)[x.id].tolist() == [0.0, -1.0, 1.0]


def test_record_validates_input_ids():
    t = Tape()
    x = leaf(t, 1.0)
    other = Tape()
    y = leaf(other, 2.0)
    with pytest.raises(StructuralError):
        x + y
    with pytest.raises(StructuralError):
        t.backward(99)
    with pytest.raises(StructuralError):
        leaf(t, np.ones((2, 3))) @ leaf(t, np.ones((3, 2, 2)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_adjoint_reports_node_id():
    # exp(log(0)) = 0 has adjoint 0 * (1 / 0) = NaN at the input
    t = Tape()
    x = leaf(t, [1.0, 0.0])
    out = exp(log(x))
    with pytest.raises(NumericError) as err:
        t.backward(out.id)
    assert err.value.node_id == x.id


def test_div_matches_quotient_rule():
    t = Tape()
    a = leaf(t, 3.0)
    b = leaf(t, 7.0)
    q = a / b
    g = t.gradient(q.id)
    assert g[a.id] == pytest.approx(1.0 / 7.0, rel=1e-15)
    assert g[b.id] == pytest.approx(-3.0 / 49.0, rel=1e-15)


def test_var_operprecedence_and_mixing():
    t = Tape()
    x = leaf(t, 2.0)
    y = 1.0 - x * 3.0 + 4.0 / x - (-x) + abs(x)
    # 1 - 6 + 2 + 2 + 2 = 1
    assert y.value == pytest.approx(1.0, abs=1e-15)
    adj = t.backward(y.id)
    # dy/dx = -3 - 4/x^2 + 1 + 1 = -2
    assert adj[x.id] == pytest.approx(-2.0, rel=1e-14)


def test_generic_math_dispatch_matches_numpy():
    # a Var records exactly the value the array path computes
    pts = np.array([-1.7, -0.3, 0.0, 0.4, 2.2])
    pos = np.array([0.2, 1.0, 3.5])
    above = np.array([-0.9, 0.0, 1.7])
    for fn, ref, at in [
        (exp, np.exp, pts),
        (expm1, np.expm1, pts),
        (tanh, np.tanh, pts),
        (softplus, lambda v: np.logaddexp(0.0, v), pts),
        (square, np.square, pts),
        (log, np.log, pos),
        (sqrt, np.sqrt, pos),
        (log1p, np.log1p, above),
        (logsumexp, logsumexp, np.outer(pos, pts)),
    ]:
        t = Tape()
        assert np.array_equal(fn(leaf(t, at)).value, ref(at))
        assert np.array_equal(fn(at), ref(at))


def test_grad_check_cubic():
    err = grad_check(lambda v: v[0] * v[0] * v[0], [2.0], step=1e-5)
    assert err < 1e-8


def test_grad_check_composite_transcendental():
    def f(v):
        x, y = v
        return exp(tanh(x) * y) + softplus(x - y) + log1p(square(y))

    assert grad_check(f, [0.7, -1.3], step=1e-6) < 1e-7


def test_grad_check_rejects_bad_step():
    with pytest.raises(StructuralError):
        grad_check(lambda v: v[0], [1.0], step=0.0)


def test_backward_is_deterministic():
    def build():
        t = Tape()
        xs = leaf(t, [0.3, -1.2, 2.0])
        y = (exp(xs[0]) * tanh(xs[1]) + softplus(xs[2] * xs[0])).sum()
        return t.backward(y.id)[xs.id]

    assert np.array_equal(build(), build())


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-3, 3), st.floats(-3, 3),
    st.floats(-2, 2), st.floats(-2, 2),
)
def test_backward_linearity(x0, x1, c0, c1):
    # grad(c0*f + c1*g) == c0*grad(f) + c1*grad(g)
    t = Tape()
    a = leaf(t, x0)
    b = leaf(t, x1)
    f = tanh(a * b)
    g = square(a) + softplus(b)
    combo = f * c0 + g * c1
    adj = t.backward(combo.id)
    af = t.backward(f.id)
    ag = t.backward(g.id)
    for n in (a.id, b.id):
        assert adj[n] == pytest.approx(c0 * af[n] + c1 * ag[n], rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=6))
def test_grad_check_random_polynomials(xs):
    def f(v):
        out = 1.0
        acc = 0.0
        for i, x in enumerate(v):
            acc = acc + x * (i + 1)
            out = out * (1.0 + square(x) * 0.1)
        return out + acc

    assert grad_check(f, xs, step=1e-5) < 1e-6


# -- array vector-Jacobian products against central differences ---------------


def check_vjp(f, shapes, seed=0, step=1e-6, tol=1e-7):
    """Tape gradients of sum(w * f(*xs)), a random weighting w, against
    central differences, for inputs of the given shapes."""
    rng = np.random.default_rng(seed)
    xs = [rng.normal(size=s) for s in shapes]
    w = rng.normal(size=np.shape(f(*xs)))
    t = Tape()
    vs = [leaf(t, x) for x in xs]
    out = f(*vs)
    assert np.array_equal(out.value, f(*xs))
    adj = t.backward((out * w).sum().id)
    for v, x in zip(vs, xs):
        assert adj[v.id].shape == x.shape
        for k in np.ndindex(x.shape):
            up, down = x.copy(), x.copy()
            up[k] += step
            down[k] -= step
            args_up = [up if a is x else a for a in xs]
            args_down = [down if a is x else a for a in xs]
            fd = ((w * f(*args_up)).sum() - (w * f(*args_down)).sum()) / (2 * step)
            assert adj[v.id][k] == pytest.approx(fd, rel=tol, abs=tol)


@pytest.mark.parametrize("shapes", [
    [(3, 4), (4,)], [(2, 3, 1), (1, 4)], [(2, 1, 3), (3,)], [(), (2, 3)],
])
def test_broadcasting_vjps_sum_over_broadcast_axes(shapes):
    check_vjp(lambda a, b: a * b + a / (2.0 + square(b)) - b, shapes)


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (-1, True), (1, False)])
def test_axis_sum_vjp(axis, keepdims):
    check_vjp(lambda a: tanh(a).sum(axis=axis, keepdims=keepdims), [(2, 3, 4)])


def test_slice_and_reshape_vjps():
    check_vjp(lambda a: a[..., 0:-1:3] * a[..., -1:] + a[1, ..., 2].reshape(3, 1), [(2, 3, 7)])


@pytest.mark.parametrize("shapes", [[(2, 5, 3), (3, 4)], [(5, 3), (3, 4)], [(3,), (3, 4)]])
def test_matmul_vjp(shapes):
    check_vjp(lambda a, b: tanh(a @ b), shapes)


def test_matmul_with_constant_left_operand():
    x = np.random.default_rng(3).normal(size=(2, 5, 3))
    check_vjp(lambda b: x @ b, [(3, 4)])


@pytest.mark.parametrize("axis,mean", [(-1, False), (0, True), (1, False)])
def test_logsumexp_vjp(axis, mean):
    check_vjp(lambda a: logsumexp(3.0 * a, axis=axis, mean=mean), [(3, 4, 2)])


def test_logsumexp_all_minus_inf_slice_passes_back_zero():
    t = Tape()
    x = leaf(t, [[-np.inf, -np.inf], [0.0, -np.inf], [1.0, 2.0]])
    out = logsumexp(x)
    assert out.value[0] == -np.inf and out.value[1] == 0.0
    g = t.backward(out[1:].sum().id)[x.id]
    assert np.isfinite(g).all()
    assert g[0].tolist() == [0.0, 0.0] and g[1].tolist() == [1.0, 0.0]
    assert g[2] == pytest.approx([1.0 / (1.0 + math.e), math.e / (1.0 + math.e)], rel=1e-15)


def test_repeated_operand_accumulates():
    # sum x_k * x_k = sum of squares; d/dx_k = 2 x_k
    t = Tape()
    x = leaf(t, [1.5, -2.0, 0.5])
    g = t.gradient((x * x).sum().id)[x.id]
    assert g.tolist() == [3.0, -4.0, 1.0]
