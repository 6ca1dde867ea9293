"""High-precision tools for a biorthogonal hard-edge universality model.

Subpackages by layer: mpcore (arbitrary-precision substrate), specfun
(hypergeometric series and Wright-Bessel functions), meijer (Meijer
G-functions on arbitrary sheets), rhframe (3x3 matrix frames, jumps and
large-z expansions), kernel (hard-edge correlation kernels), equilibrium
(densities and energy minimization; the one module that imports numpy,
its typed errors in equilibrium_errors, which does not), finiten (finite-n
biorthogonal systems and convergence to the hard-edge limit).
"""

__version__ = "0.1.0"
