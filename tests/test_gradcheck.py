"""The gradient-check suite: every row passes at seeds 0-5, and a parameter
whose gradient a row declares to vanish fails the row unless it does."""

from __future__ import annotations

import numpy as np
import pytest

import adrgnn.autodiff as ad
from adrgnn.autodiff import Variable
from adrgnn.gradcheck import PRIMITIVE_TOL, relative_gradient_error, run_all_checks
from adrgnn.runtime import philox


@pytest.mark.parametrize("seed", range(6))
def test_every_check_passes(seed):
    failed = [(r["check"], r["max_rel_err"]) for r in run_all_checks(seed) if not r["passed"]]
    assert failed == []


def test_a_declared_vanishing_gradient_that_is_not_zero_fails():
    gen = philox(0)
    x, w, b = (Variable(gen.standard_normal(shape), requires_grad=True)
               for shape in ((4, 3), (3, 2), (2,)))
    target = gen.standard_normal((4, 2))

    def build():
        return ad.mse(ad.matmul(x, w, b), target)

    assert relative_gradient_error(build, [x, w, b]) <= PRIMITIVE_TOL
    assert relative_gradient_error(build, [x, w], vanishing=(b,)) == np.inf
