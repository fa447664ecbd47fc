"""The CSV float kernel writes exactly CPython's "%.17g" text.

``runio._g17`` formats a float64 array in bulk; CPython's ``b"%.17g" % v``,
one value at a time, is the reference.  The draws are fixed, so every run
checks the same values.
"""

import math

import numpy as np
import pytest

from releasesim import runio

TIES = [2251799813685247.75, -2251799813685247.75]   # 17 digits end exactly halfway
NON_FINITE = [math.nan, math.inf, -math.inf]
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308,
         1e16, 1e17, 99999999999999999.0, 2251799813685247.75, 4503599627370495.5]


def texts(values) -> list[bytes]:
    """The kernel's text of each value: its slot without the NUL bytes."""
    return [row.tobytes().replace(b"\0", b"") for row in runio._g17(values)]


def reference(values) -> list[bytes]:
    return [b"%.17g" % v for v in np.asarray(values, float).tolist()]


def cases() -> np.ndarray:
    rng = np.random.default_rng(20260816)
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, 250_000, dtype=np.int64).view(np.float64)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    integers = np.concatenate([np.arange(-3000.0, 3000.0),
                               rng.integers(-2 ** 62, 2 ** 62, 2000).astype(float)])
    return np.concatenate([bits[np.isfinite(bits)], EDGES, powers,
                           np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf),
                           integers, NON_FINITE, TIES])


def test_the_kernel_writes_the_bytes_of_percent_17g():
    values = cases()
    assert np.isfinite(values).sum() >= 200_000
    assert texts(values) == reference(values)


@pytest.mark.parametrize("values", [np.zeros(0), np.array([[0.5, -3.0], [1e-300, 7.0]])],
                         ids=["empty", "2-D"])
def test_any_shape_is_formatted_in_order(values):
    assert texts(values) == reference(values.ravel())


def test_ties_and_non_finite_values_take_the_fallback(monkeypatch):
    given = []
    cpython = runio._cpython_g17

    def recorded(values):
        given.extend(values.tolist())
        return cpython(values)
    monkeypatch.setattr(runio, "_cpython_g17", recorded)
    values = np.array([0.1, 123.0, 1e-7, *TIES, *NON_FINITE, 0.0, -0.0])
    assert texts(values) == reference(values)
    # each distinct value once, and only these
    assert sorted(map(repr, given)) == sorted(map(repr, [*TIES, *NON_FINITE, 0.0, -0.0]))
