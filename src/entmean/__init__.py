"""entmean: genuine multipartite entanglement measures for pure states."""

from .bipartitions import Bipartition, enumerate_bipartitions
from .closedform import (
    ClosedFormRow,
    closed_form_table,
    gbc_ghz,
    gbc_w,
    ghz_concurrence_m,
    ratio_w_over_ghz,
    w_concurrence_m,
)
from .linalg import (
    linear_entropy,
    reshape,
    schmidt_weights,
)
from .measures import (
    MeasureReport,
    concurrence,
    concurrence_fill,
    full_report,
    gbc,
    ggm,
    gmc,
)
from .states import (
    PureState,
    make_custom,
    make_family_a,
    make_family_b,
    make_family_c,
    make_ghz,
    make_w,
    permute_parties,
)
from .sweep import (
    OrderingFinding,
    PeakResult,
    SweepRow,
    SweepSpec,
    emit_csv,
    emit_ordering,
    emit_plotscript,
    family_state,
    find_ordering_reversals,
    find_peak,
    measure_value,
    run_sweep,
)

__all__ = [
    "Bipartition",
    "ClosedFormRow",
    "MeasureReport",
    "OrderingFinding",
    "PeakResult",
    "PureState",
    "SweepRow",
    "SweepSpec",
    "closed_form_table",
    "concurrence",
    "concurrence_fill",
    "emit_csv",
    "emit_ordering",
    "emit_plotscript",
    "enumerate_bipartitions",
    "family_state",
    "find_ordering_reversals",
    "find_peak",
    "full_report",
    "gbc",
    "gbc_ghz",
    "gbc_w",
    "ggm",
    "ghz_concurrence_m",
    "gmc",
    "linear_entropy",
    "make_custom",
    "make_family_a",
    "make_family_b",
    "make_family_c",
    "make_ghz",
    "make_w",
    "measure_value",
    "permute_parties",
    "ratio_w_over_ghz",
    "reshape",
    "run_sweep",
    "schmidt_weights",
    "w_concurrence_m",
]

__version__ = "0.1.0"
