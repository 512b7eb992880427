"""
Estimating a Lyapunov spectrum
==============================

A random product draws one matrix map per step, moves the circle point by
that map's rotation angle, and multiplies.  The spectrum estimator runs a
few independent replicates of a long product with periodic QR
renormalization and reports one exponent per dimension, largest first.
"""

import numpy as np

import cocyclelab as cl

# Start with a case whose answer is known exactly: a constant diagonal
# matrix has exponents log of its diagonal entries, whatever the rotation.
diag = cl.TrigMatrixMap.constant(np.diag([2.0, 1.0, 0.5]), group_tag=cl.DIAGONAL)
product = cl.RandomProduct([cl.GOLDEN_MEAN], [diag])
est = cl.estimate_spectrum(product, n_iter=2000, n_rep=2, seed=0)
print("constant diag(2, 1, 1/2):")
print("  exponents", est.values)
print("  exact    ", [float(np.log(2.0)), 0.0, float(np.log(0.5))])

# Now a genuinely random tuple: two 3x3 trig-polynomial maps with
# incommensurate angles, drawn with equal weights.
rng = np.random.default_rng(7)
maps = []
for _ in range(2):
    const = 2.0 * np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    maps.append(cl.TrigMatrixMap(const,
                                 0.1 * rng.standard_normal((2, 3, 3)),
                                 0.1 * rng.standard_normal((2, 3, 3))))
product = cl.RandomProduct([cl.GOLDEN_MEAN, 0.41421356237309515], maps)

est = cl.estimate_spectrum(product, n_iter=20000, n_rep=8, seed=42)
print("\nrandom 3x3 tuple:")
for k, (value, err) in enumerate(zip(est.values, est.stderr), start=1):
    print(f"  lambda_{k} = {value:+.6f}  (stderr {err:.1e})")

# The exponents must add up to the average log |det| over the invariant
# measure, which Jensen's formula gives from the Fourier modes of det A,
# a trig polynomial, without any sampling of the product.
target = cl.mean_log_abs_det(product)
print(f"  sum rule: {np.sum(est.values):+.6f} vs quadrature {target:+.6f}")

# Replicates are seeded with a counter-based generator, so reruns with the
# same seed reproduce the estimate bit for bit.
again = cl.estimate_spectrum(product, n_iter=20000, n_rep=8, seed=42)
print("  rerun identical:", bool(np.all(again.values == est.values)))
