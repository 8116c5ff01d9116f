"""phl: a desk-scale homotopy laboratory on finite presheaf-like structures.

Cylinders and homotopy on finite sets, directed multigraphs, and truncated
simplicial sets; depth-bounded anodyne generation and lifting oracles; the
free-monoid and free-category monads with explicit retract and tower
witnesses; and weak-equivalence checking against declared algebra families.
Every construction is cross-validated against brute-force enumeration.
"""

__version__ = "0.1.0"
