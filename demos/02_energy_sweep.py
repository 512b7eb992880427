"""
Top exponent across an energy grid
==================================

Discrete one-dimensional Schrodinger operators with quasi-periodic
sampling lead to 2x2 transfer matrices [[E - u(t), -1], [1, 0]].  Sweeping
the energy E while keeping the potentials fixed traces out the top
Lyapunov exponent, the quantity behind localization statements.
"""

import numpy as np

import cocyclelab as cl

# two low-degree potentials, one per symbol of the random product
u0 = cl.TrigPolynomial(0.0, [0.8], [0.0])
u1 = cl.TrigPolynomial(0.2, [0.0], [0.5])
angles = [cl.GOLDEN_MEAN, 0.41421356237309515]

print("energy   lambda_top   stderr")
for energy in np.linspace(2.5, 5.0, 6):
    maps = [cl.make_schrodinger(cl.shift_potential(-u, energy)) for u in (u0, u1)]
    product = cl.RandomProduct(angles, maps)
    est = cl.estimate_top_exponent(product, n_iter=20000, n_rep=6, seed=11)
    print(f"{energy:6.2f}   {est.top:.6f}    {float(est.stderr[0]):.1e}")

# Sanity anchor: with a flat potential the transfer matrix is constant and
# the exponent is log of its spectral radius.
energy = 3.0
flat = cl.make_schrodinger(cl.TrigPolynomial(energy, [0.0], [0.0]))
product = cl.RandomProduct([cl.GOLDEN_MEAN], [flat])
est = cl.estimate_top_exponent(product, n_iter=20000, n_rep=6, seed=11)
exact = np.log((energy + np.sqrt(energy**2 - 4.0)) / 2.0)
print(f"\nflat potential at E={energy}: estimate {est.top:.6f}, exact {exact:.6f}")
