"""
Holonomy around the homoclinic loop
===================================

The base dynamics has a fixed point (the all-zeros symbol sequence) and a
homoclinic orbit through the single-flip sequence.  Transporting fibers
along the unstable leg and back along the stable leg composes into a
linear holonomy.  Because the symbol tails agree after finitely many
steps, the limit is attained exactly, and for the canonical loop the whole
composition collapses to inv(A_0(t + delta)) A_1(t).
"""

import numpy as np

import cocyclelab as cl

rng = np.random.default_rng(5)
maps = [cl.TrigMatrixMap(2.0 * np.eye(2) + 0.3 * rng.standard_normal((2, 2)),
                         0.1 * rng.standard_normal((2, 2, 2)),
                         0.1 * rng.standard_normal((2, 2, 2)))
        for _ in range(2)]
product = cl.RandomProduct([cl.GOLDEN_MEAN, 0.41421356237309515], maps)

print("composed loop vs closed form:")
for t in (0.0, 0.25, 0.8):
    loop = cl.composed_holonomy(product, t)
    closed = cl.closed_form_holonomy(product, t)
    print(f"  t = {t:4.2f}: max difference {np.max(np.abs(loop - closed)):.2e}")

# For Schrodinger maps the holonomy is unipotent: ones on the diagonal, a
# zero upper corner, and the potential difference in the lower corner.
u0 = cl.TrigPolynomial(0.0, [0.8], [0.0])
u1 = cl.TrigPolynomial(0.2, [0.0], [0.5])
schro = cl.RandomProduct(
    product.angles,
    [cl.make_schrodinger(cl.shift_potential(-u, 3.0)) for u in (u0, u1)],
)
h = cl.closed_form_holonomy(schro, 0.37)
print("\nSchrodinger holonomy at t = 0.37:")
print(np.array_str(h, precision=6, suppress_small=True))

# The expanding/contracting directions of the fixed-point map form the
# frame the holonomy is measured against; sample them over the circle.
field = cl.oseledets_field(schro.angles[0], schro.maps[0],
                           np.linspace(0.0, 1.0, 8, endpoint=False))
print("\nOseledets directions of the fixed-point map:")
for t, res, conv in zip(field.ts, field.residual, field.converged):
    print(f"  t = {t:5.3f}  residual {res:.1e}  converged {bool(conv)}")
