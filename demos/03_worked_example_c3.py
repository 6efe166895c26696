"""The rank-two worked example on C^3, end to end.

K maps e1 -> e1, e2 -> e1, e3 -> e2; the family {K e_n} = {e1, e1, e2}
spans only a plane, so it is not a frame for C^3 — but it is a K-frame:
the lower inequality holds against ||K* f|| instead of ||f||.

Run with:  python3 demos/03_worked_example_c3.py
"""

import numpy as np

from framekit import (
    FrameSequence,
    c3_example,
    frame_bounds,
    frame_operator,
    interchange_dual,
    kframe_check,
    numerical_rank,
    synthesis,
)

frame, K, _ = c3_example()
basis = np.eye(3, dtype=complex)

print("family {K e_n}:")
print(np.real_if_close(frame.matrix))

# Not a frame: the third coordinate is invisible.
fb = frame_bounds(frame)
print(f"\nplain frame bounds: lower={fb.lower} -> not a frame for C^3")

# But the reproducing identity K f = sum <f, e_n> f_n holds exactly.
defect = np.linalg.norm(frame.matrix @ basis.conj().T - K)
print(f"K f = sum <f, e_n> f_n as matrices: defect {defect:g}")

# The two families cannot swap roles: at f = e3 the swapped sum vanishes.
swapped = synthesis(FrameSequence(basis), frame.matrix.conj().T @ basis[:, 2])
print(f"swapped sum at e3: {np.real_if_close(swapped)}  (but K e3 = e2, gap norm "
      f"{np.linalg.norm(K @ basis[:, 2] - swapped):g})")

# Frame operator and the optimal K-frame bounds.
S = frame_operator(frame)
print(f"\nS = F F* = diag{tuple(float(x) for x in np.diag(S).real)}")
report = kframe_check(frame, K)
print(f"K-frame verdict: {report.is_kframe}, optimal bounds "
      f"({report.lower_opt:g}, {report.upper_opt:g}), rank(K) = {numerical_rank(K)}")

# The dual system on range(K) and both reconstruction identities.
dual = interchange_dual(FrameSequence(basis), K, frame_f=frame)
print(f"\ndual system:\n{np.real_if_close(dual.matrix)}")
rng = np.random.default_rng(3)
f = K @ (rng.normal(size=3) + 1j * rng.normal(size=3))   # a vector in range(K)
rec1 = synthesis(frame, dual.matrix.conj().T @ f)
rec2 = synthesis(dual, frame.matrix.conj().T @ f)
print(f"reconstruction residuals on range(K): "
      f"{np.linalg.norm(f - rec1):.3e} / {np.linalg.norm(f - rec2):.3e}")
