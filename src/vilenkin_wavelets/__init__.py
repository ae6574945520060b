"""Exact wavelet-set verification and MRA construction on Vilenkin groups.

The package decides, in exact arithmetic over cylinder sets, whether a
family of dual-group subsets generates an orthonormal wavelet basis,
whether the resulting wavelets come from a multiresolution analysis,
and constructs the associated scaling spectrum and filter bank.  A
finite radix-p transform provides independent numerical cross-checks.
"""

__version__ = "0.1.0"

from .errors import (
    AliasingError,
    BaseMismatchError,
    DigitError,
    FamilyArityError,
    LambdaDomainError,
    OverlapError,
    ParseError,
    ResolutionCapError,
    SchemaError,
    VilenkinError,
)
from .group import (
    GroupElement,
    format_element,
    from_digits,
    identity,
    lambda_decode,
    lambda_encode,
    parse_element,
)
from .setalg import (
    MAX_RESOLUTION,
    Cylinder,
    Measure,
    PSet,
    annulus,
    expanded_unit,
    theta_ball,
    unit_cell,
)
from .verifier import (
    ConditionRecord,
    SearchResult,
    VerdictReport,
    WaveletFamily,
    check_dilation_tiling,
    check_measure_one,
    check_translation_congruence,
    congruence_partition,
    is_wavelet_set,
    search_wavelet_sets,
    shannon_family,
)
from .mra import (
    CalderonReport,
    FilterBank,
    MraReport,
    OmegaSigma,
    accumulate_omega_sigma,
    build_filters,
    check_mra_condition,
    verify_calderon,
    verify_filter_identities,
    verify_two_scale,
)
from .transform import (
    GridSignal,
    QuotientGrid,
    analyze,
    band_mask,
    dilate_translate,
    forward,
    gram_matrix,
    indicator_on_grid,
    inverse,
    read_csv,
    reconstruct,
    synthesize_wavelet,
    translate_orthonormality_exact,
    translate_orthonormality_grid,
    v0_residual,
    wavelet_system,
    write_csv,
)
from .famio import (
    emit_report,
    family_from_document,
    family_to_document,
    parse_family_file,
)
