"""Exact order-topological toolkit for subgroup spectra.

The package models finite spectral spaces as Priestley posets, countable
ones through finitely presented "flagged" spaces, computes Thomason and
Cantor-Bendixson filtrations with their dispersion theory, carries a
catalog of subgroup-space models for small compact Lie groups with the
cotoral order and a representation-theoretic height, and generates the
punctured-cube diagrams that schedule the stratum-by-stratum
reconstruction of a dispersible space.

``import prism`` loads no submodule.  A name below loads its module on
first use (PEP 562) and is then kept here, so later lookups are plain
attribute reads.
"""

from importlib import import_module as _import_module

# the public names by the module that defines them; each module named here
# is public too, intlinalg through its own name only
_EXPORTS = {
    "errors": """ChecksFailed DimTooLarge InconsistentHint KeyMismatch
        NotDispersible NotInvariant NotT0 PrismError UnsupportedGroup""",
    "priestley": """ALL ANTICHAIN COFINITE DESCENDING EMPTY FINITE
        AccumulationFamily ClopenDownClass FinitePriestley FiniteTopSpace
        FlaggedPriestley SymbolicSet clopen_down_sets down_closure_symbolic
        down_sets flagged_from_json flagged_to_json instantiate inverse
        is_noetherian priestley_of_spectral restrict specialization_order
        spectral_of_priestley thomason_points up_closure_symbolic""",
    "dispersion": """DispersionCandidate HeightAssignment StrataReport
        cb_heights gen_closure height_of_space is_dispersible is_dispersion
        is_generically_noetherian strata thomason_derivative thomason_heights
        trivialize weakly_visible""",
    "spaces": """DESCENDING_TO_LIMIT LIMIT_ABOVE LIMIT_BELOW RELATIONS
        UNRELATED convergent_sequence_space guiding_examples""",
    "liegroups": """NSU3T A4Key A5Key Circle Cyc Dih DualLattice FiniteClass
        FiniteGroup FiniteIdx FullKey IntegerAction KleinKey O2 O2Key S4Key
        SO2Key SO3 ToralSemidirect Torus WeylData burnside_rank canonical_key
        cotoral_le count_simple_summands dimension_candidate
        finite_group_from_json finite_weyl_criterion flagged_snapshot
        group_from_spec group_rank has_finite_weyl height_rep key_dimension
        key_name key_rank normalizer_directions parse_key phi_is_finite
        rank_candidate snapshot_keys snapshot_parts spectrum_is_noetherian
        toral_semidirect_from_json weyl_data""",
    "cube": """CubeDiagram CubeNode Diagonal Laxness Projection SpliceStep
        build_decomposition classify_edge component_decompositions
        cube_to_dot cube_to_json cube_to_text decomposition_of factor_label
        isomax_dim isomax_members isomax_table punctured_cube
        recollement_schedule""",
    "intlinalg": "",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_EXPORTS) + sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        value = _import_module("." + name, __name__)
    elif name in _MODULE_OF:
        value = getattr(_import_module("." + _MODULE_OF[name], __name__), name)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
