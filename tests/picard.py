"""Picard-iteration oracle helper shared by the jet and catalog tests."""

import numpy as np

from oscflag.errors import ShapeError
from oscflag.jets import Jet


def antiderivative(a: Jet, constant: float = 0.0) -> Jet:
    """Formal antiderivative of a single-variable jet (degree shifts up by one).

    The top coefficient is discarded by truncation, so Picard iteration with
    this operator fixes one extra coefficient per sweep.
    """
    if a.num_vars != 1:
        raise ShapeError("antiderivative is defined for single-variable jets")
    c = np.zeros_like(a.coeffs)
    c[0] = constant
    degrees = np.arange(1, a.order + 1, dtype=float)
    c[1:] = a.coeffs[:-1] / degrees
    return Jet(1, a.order, c)
