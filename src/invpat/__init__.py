"""Pattern avoidance by involutions and by symmetric rook placements.

Exact enumeration of pattern-avoiding involutions, full rook placements on
Ferrers boards, RSK and evacuation on standard tableaux, a suffix-reduction
construction relating board and involution counts, and the sliding
bijection that moves a descent-free column window across a board.
"""

from .avoidance import (
    CountStore,
    closed_form_123,
    closed_form_231,
    closed_form_12345,
    closed_form_123456,
    count_avoiders,
    count_avoiders_with_column_constraint,
    lambda_sym,
    motzkin,
    pattern_set,
)
from .boards import (
    Placement,
    conjugate,
    enumerate_full_placements,
    enumerate_self_conjugate_shapes,
    enumerate_symmetric_full_placements,
    graph_of,
    is_full,
    is_self_conjugate,
    is_symmetric,
    make_placement,
    placement_contains,
)
from .classify import (
    classify_sk,
    load_tables,
    reproduce_table,
    scan_conjectures,
    symmetry_classes,
    verify_prefix_exchange,
)
from .perms import (
    avoids,
    contains,
    inverse,
    involutions,
    is_involution,
    pattern_of,
    reversed_complement,
    symmetry_class,
)
from .reduction import (
    ReducedBoard,
    SuffixSet,
    class_decomposition_check,
    suffix_reduction,
    suffix_set,
    verify_reduction_equivalence,
)
from .slide import (
    classify_slide_case,
    flank_avoiding_count,
    inner_shape,
    slide_context,
    slide_inverse,
    slide_transform,
    top_row_dot_count,
)
from .tableaux import (
    check_reversal_property,
    evacuation,
    rsk,
    rsk_inverse,
    standard_tableaux,
    transpose_tableau,
)

__version__ = "0.1.0"
