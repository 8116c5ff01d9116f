"""phl: a desk-scale homotopy laboratory on finite presheaf-like structures.

Cylinders and homotopy on finite sets, directed multigraphs, and truncated
simplicial sets; depth-bounded anodyne generation and lifting oracles; the
free-monoid and free-category monads with explicit retract and tower
witnesses; and weak-equivalence checking against declared algebra families.
Every construction is cross-validated against brute-force enumeration.
"""

from .core import (
    CapError,
    Error,
    GuardExceeded,
    MismatchError,
    PresheafMap,
    PresheafObject,
    ValidationError,
    enumerate_homs,
    fin_graph,
    fin_set,
    identity,
    is_iso,
    is_mono,
    product,
    pushout,
)
from .cylinder import (
    CornerMap,
    CylinderData,
    corner_endpoint,
    corner_full,
    get_instance,
    verify_ehd,
)
from .homotopy import (
    HomClasses,
    check_equivalence_relation,
    find_homotopy,
    homotopy_classes,
    induced_class_map,
)
from .lifting import (
    AnodyneFamily,
    LiftingProblem,
    generate_anodyne,
    has_rlp,
    is_naively_fibrant_upto,
    solve_lift,
)
from .monads import (
    FiniteCategory,
    FiniteMonoid,
    FreeCategoryMonad,
    FreeMonoidMonad,
    algebra_extend,
    check_monad_laws,
    linear_chain,
)
from .witnesses import (
    RetractWitness,
    TowerWitness,
    explicit_lift_category,
    explicit_lift_monoid,
    m2_retract_set,
    m2_tower_graph,
    validate_saturation,
)
from .equivalence import (
    alternative_we_check,
    check_m3_sample,
    is_t_weak_equivalence,
    naturality_and_minimality_suite,
)
from .simplicial import (
    delta,
    groupoid_interval,
    horn_filler,
    nerve,
    tau0_classes,
)

__version__ = "0.1.0"
