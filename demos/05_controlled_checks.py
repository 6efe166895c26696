"""Controlled K-frames: a positive controller C reweights the frame operator.

The controlled operator L_C = C S must define a real quadratic form
(equivalently: C and S commute), and the controlled verdict is the same
Douglas-lemma optimum as the plain one.  Certified bounds transfer between
the plain and controlled pictures in both directions.

Run with:  python3 demos/05_controlled_checks.py
"""

import numpy as np

from framekit import (
    NonRealFormError,
    bounds_to_controlled,
    bounds_to_kframe,
    commuting_triple,
    controlled_kframe_check,
    frame_operator,
    kframe_check,
    make_controller,
    random_frame,
)

rng = np.random.default_rng(23)

# A frame with K and C built as spectral functions of S, so everything commutes.
frame, K, ctrl = commuting_triple(rng, 6, 12)
S = frame_operator(frame)
print(f"commuting instance on C^6: |CS - SC| = "
      f"{np.linalg.norm(ctrl.matrix @ S - S @ ctrl.matrix):.3e}")

plain = kframe_check(frame, K)
controlled = controlled_kframe_check(frame, K, ctrl)
print(f"plain K-frame bounds:      ({plain.lower_opt:.6f}, {plain.upper_opt:.6f})")
print(f"controlled K-frame bounds: ({controlled.lower_opt:.6f}, {controlled.upper_opt:.6f})")
print(f"verdicts: plain {plain.is_kframe}, controlled {controlled.is_controlled_kframe}")

# Certified bounds move between the two pictures: the lower ones as they are,
# the upper ones with norm factors of C.
a_t, b_t = bounds_to_kframe(controlled.lower_opt, controlled.upper_opt, ctrl)
print(f"controlled -> plain transfer: ({a_t:.6f}, {b_t:.6f}) "
      f"(valid: {a_t <= plain.lower_opt + 1e-12 and b_t >= plain.upper_opt - 1e-12})")
a_c, b_c = bounds_to_controlled(plain.lower_opt, plain.upper_opt, ctrl, K=K)
print(f"plain -> controlled transfer: ({a_c:.6f}, {b_c:.6f}) "
      f"(valid: {a_c <= controlled.lower_opt + 1e-12 and b_c >= controlled.upper_opt - 1e-12})")

# A controller that does not commute with S is rejected, not symmetrized.
other = random_frame(rng, 6, 12)
try:
    controlled_kframe_check(other, np.eye(6), ctrl)
except NonRealFormError as exc:
    print(f"\nnon-commuting controller rejected: {exc}")

# Scaling C leaves the verdict invariant (the weight cancels in the quotient).
scaled = make_controller(3.0 * ctrl.matrix)
rescaled = controlled_kframe_check(frame, K, scaled)
print(f"3C: lower bound unchanged ({rescaled.lower_opt:.6f}), "
      f"upper scales to {rescaled.upper_opt:.6f} = 3 x {controlled.upper_opt:.6f}")
