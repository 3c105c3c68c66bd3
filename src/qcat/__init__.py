"""qcat: quantized hyperbolic torus automorphisms.

Exact complex-Gaussian propagation under the quantization of SL(2,Z) cat
maps, the finite-dimensional torus Hilbert space with certified lattice
truncations, damped Lagrangian approximants of the propagated packet, and
the reduction of post-Ehrenfest matrix elements to damped Birkhoff sums of a
parabolic skew product.
"""

__version__ = "0.1.0"
