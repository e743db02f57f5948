"""Brent's bounded maximiser, golden_max.

Proves:
  1.  On three closed forms, -(x - 0.3)^2, x e^(-2x) and the landman G in
      beta at fixed c, the returned x lies within xtol of the known
      argmax and f(x) is f at that x, with or without a mid point
  2.  There it needs at most half the evaluations of pure golden section
      (two interior points, one per shrink by 0.618, then both edges)
  3.  A maximiser on lo or on hi is returned exactly, and a mid on either
      edge still finds an interior maximiser
  4.  A flat f ends inside the bracket at its one value
  5.  No x is ever evaluated twice, and an empty bracket or a mid outside
      it is refused
"""

import math

import pytest
from scipy.optimize import minimize_scalar

from wavebound._search import golden_max
from wavebound.twospecies import landman_G_closed

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class Recorded:
    """f, with every x it is called at."""

    def __init__(self, f):
        self.f = f
        self.xs = []

    def __call__(self, x):
        self.xs.append(x)
        return self.f(x)


def _landman(beta):
    return landman_G_closed(beta, 0.7, 2.1, 1.1)


_LANDMAN_ARGMAX = minimize_scalar(
    lambda b: -_landman(b), bounds=(1.0, 2.0), method="bounded",
    options={"xatol": 1e-12},
).x

# (f, lo, hi, grid argmax used as mid, argmax)
_CASES = {
    "parabola": (lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 0.25, 0.3),
    "x_exp": (lambda x: x * math.exp(-2.0 * x), 0.0, 2.0, 0.6, 0.5),
    "landman_G": (_landman, 1.5, 1.9, 1.7, _LANDMAN_ARGMAX),
}


def _golden_section_evals(lo, hi, xtol):
    """Evaluations of pure golden section on [lo, hi] down to xtol."""
    shrinks = math.ceil(math.log(xtol / (hi - lo)) / math.log(_INV_PHI))
    return 2 + shrinks + 2


@pytest.mark.parametrize("name", list(_CASES))
@pytest.mark.parametrize("with_mid", [False, True])
@pytest.mark.parametrize("xtol", [1e-4, 1e-6])
def test_finds_closed_form_argmax(name, with_mid, xtol):
    f, lo, hi, mid, want = _CASES[name]
    rec = Recorded(f)
    x, fx = golden_max(rec, lo, hi, xtol=xtol, mid=mid if with_mid else None)
    assert abs(x - want) <= xtol
    assert fx == f(x)
    assert len(rec.xs) == len(set(rec.xs))
    # parabolic steps: at most half the evaluations of golden section
    assert 2 * len(rec.xs) <= _golden_section_evals(lo, hi, xtol)


@pytest.mark.parametrize("mid", [None, 0.0, 0.4, 1.0])
def test_maximum_on_either_edge(mid):
    for f, want in ((lambda x: x, 1.0), (lambda x: -x, 0.0)):
        rec = Recorded(f)
        x, fx = golden_max(rec, 0.0, 1.0, xtol=1e-6, mid=mid)
        assert (x, fx) == (want, f(want))
        assert len(rec.xs) == len(set(rec.xs))


@pytest.mark.parametrize("mid", [0.0, 1.0])
def test_mid_on_an_edge(mid):
    rec = Recorded(lambda x: -(x - 0.3) ** 2)
    x, _ = golden_max(rec, 0.0, 1.0, xtol=1e-6, mid=mid)
    assert abs(x - 0.3) <= 1e-6
    assert len(rec.xs) == len(set(rec.xs))
    assert rec.xs.count(mid) == 1


@pytest.mark.parametrize("mid", [None, 0.0, 0.5])
def test_flat_function(mid):
    rec = Recorded(lambda x: 1.0)
    x, fx = golden_max(rec, 0.0, 1.0, xtol=1e-6, mid=mid)
    assert 0.0 <= x <= 1.0 and fx == 1.0
    assert len(rec.xs) == len(set(rec.xs))
    assert len(rec.xs) < _golden_section_evals(0.0, 1.0, 1e-6)


def test_bad_brackets_are_refused():
    with pytest.raises(ValueError, match="empty bracket"):
        golden_max(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError, match="outside"):
        golden_max(lambda x: x, 0.0, 1.0, mid=1.5)
