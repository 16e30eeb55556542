"""The scalar loss the test suites differentiate: a fixed projection of an
op's output, built from tape ops so that ``backward`` reaches the output."""

import numpy as np

from aftx.tensor import Tensor, conv1d, reshape


def project(out: Tensor, r) -> Tensor:
    """sum(out * r) as a 0-d Tensor, for an array ``r`` of out's shape, or a
    Tensor ``r`` that is differentiated through as well.  The gradient that
    reaches ``out`` is ``r`` itself, bit for bit.

    It is a width-1 ``conv1d`` of r, as [size, 1] channels, under out as its
    [1, size, 1] weights: the one tape op whose product may run over an
    empty axis, so an empty output also gets a loss (0) and a backward.
    """
    r = r if isinstance(r, Tensor) else Tensor(r)
    size = out.data.size
    loss = conv1d(reshape(r, (size, 1)), reshape(out, (1, size, 1)), Tensor(np.zeros(1)),
                  stride=1)
    return reshape(loss, ())
