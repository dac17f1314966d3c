"""Tangent Lie group bundles and tangent groupoids of Heisenberg manifolds.

Builds the graded tangent group of a hyperplane distribution from chart
data (a frame of polynomial vector fields) and checks the coordinate
normalizations, group laws, dilation limits, diffeomorphism approximations
and groupoid composition limits by exact jet arithmetic plus measured
convergence rates.
"""

__version__ = "0.1.0"

# Jet arithmetic is NumPy only; the name stays for tools that record it.
kernel_name = "python"

__all__ = ["kernel_name", "__version__"]
