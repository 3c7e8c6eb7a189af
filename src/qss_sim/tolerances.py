"""Numeric tolerances used across the package.

Two tiers: a general equality/invariant tolerance (1e-10) and a tighter one
for linear-algebra residuals such as channel completeness or the reset
state (1e-12). Double precision over registers of at most 8 qubits keeps roundoff
well below both. ``POLE_ATOL`` is the distance from a closed form's pole
below which its value is refused rather than returned.
"""

ATOL = 1e-10
LINALG_ATOL = 1e-12

# ``f1_ww`` and ``avg_f1`` divide by ``p r - 1``. Both numerator and
# denominator carry a rounding error of a few ulps, so within ``|1 - p r| = d``
# of the pole the result is off by about 4e-16 / d (measured against exact
# rational arithmetic): 4e-11 at d = 1e-5, inside the 1e-10 tolerance of the
# protected fidelities, and 1e-6 at d = 1e-10.
POLE_ATOL = 1e-5
