"""Exact bookkeeping for splittings of degenerate elliptic fibers.

The package determines which singular fibers can appear alongside a
given main fiber when a Kodaira fiber splits under a barking
deformation: exact SL(2,Z) monodromy arithmetic, trace obstructions,
crust combinatorics, subordinate-fiber counting laws, and a numeric
check of the local models.
"""

__version__ = "0.1.0"
