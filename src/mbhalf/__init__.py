"""High-precision tools for a biorthogonal hard-edge universality model.

Modules by layer: mpcore (arbitrary-precision substrate), specfun
(hypergeometric series and Wright-Bessel functions), meijer (Meijer
G-functions on arbitrary sheets), rhframe (3x3 matrix frames, jumps and
large-z expansions), kernel (hard-edge correlation kernels), equilibrium
(densities and energy minimization; the one module that imports numpy),
finiten (finite-n biorthogonal systems and convergence to the hard-edge
limit), cli (the ``mbhalf`` command).  Every typed numerical failure
derives from mpcore.NumericalError beside the built-in exception it
refines, and the command line maps it to exit code 3.
"""

__version__ = "0.1.0"
