"""Point evaluation of a truncated series: the oracle the Fock and WCO tests share."""

import math

import numpy as np


def evaluate(f: np.ndarray, z: complex) -> complex:
    """Pointwise value sum_k c_k z^k / sqrt(k!) of the truncated series.

    Each power z^k / sqrt(k!) is the one before times z / sqrt(k), so no
    factorial is formed.
    """
    acc = 0.0 + 0.0j
    power = 1.0 + 0.0j
    for k, c in enumerate(f):
        acc += c * power
        power = power * z / math.sqrt(k + 1)
    return complex(acc)
