"""Billiards on confocal billiard books.

Simulation of reflection games on books glued from confocal elliptic disks
and annuli, compilation of ordered reflection games into realizing books,
and the Fomenko-graph topology of the resulting isoenergy foliations.
"""

from .book import (
    BilliardBook,
    GluingPermutation,
    Leaf,
    SchemaError,
    Side,
    Violation,
    annulus,
    boundary_side,
    book_from_dict,
    book_to_dict,
    disk,
    dumps_book,
    invert_gluings,
    load_book,
    loads_book,
    make_book,
    save_book,
    validate_book,
)
from .conics import (
    ConfocalFamily,
    ConicKind,
    DegenerateConic,
    EmptyConic,
    PointNotOnConic,
    caustic_parameter,
    classify_conic,
    directions_with_caustic,
    reflect,
    tangency_oracle,
)
from .dynamics import (
    EventSide,
    PhaseState,
    Rule,
    TangentialHit,
    Trajectory,
    TrajectoryEvent,
    reverse,
    save_trajectory_csv,
    simulate,
    step,
    trace_to_game,
    trajectory_csv,
)
from .games import (
    CompileReport,
    ConsecutiveRepeat,
    InadmissibleCaustic,
    InvalidGame,
    OrderedGame,
    RepeatWithOutside,
    admissible_start,
    compile_game,
    compile_simple,
    leaf_count_bounds,
    normalize_game,
    validate_game,
    verify_realization,
)
from .topology import (
    CriticalLambda,
    FomenkoAtom,
    FomenkoGraph,
    NotCritical,
    RegimeDescriptor,
    axis_bounce_circles,
    build_fomenko_graph,
    classify_singular_level,
    critical_levels,
    enumerate_regimes,
    graphs_isomorphic,
    to_dot,
)

__version__ = "0.1.0"
