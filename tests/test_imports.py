"""``import prism`` loads nothing; a name loads its module on first use, and
each CLI subcommand loads only the layers it runs."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import prism
from prism import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")

# every public name the package exported when it imported its modules
# eagerly, by the module that defines it; the module names themselves too
EXPORTED = {
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
NAMES = {name: module for module, names in EXPORTED.items() for name in names.split()}


def run_fresh(code):
    """Run ``code`` in a new interpreter; returns its stdout, parsed as JSON."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_every_exported_name_resolves():
    assert len(NAMES) + len(EXPORTED) == 127
    assert sorted(prism.__all__) == sorted(list(NAMES) + list(EXPORTED))
    for module in EXPORTED:
        assert getattr(prism, module) is import_module("prism." + module)
    for name, module in NAMES.items():
        namespace = {}
        exec("from prism import %s" % name, namespace)
        expected = getattr(import_module("prism." + module), name)
        assert getattr(prism, name) is expected and namespace[name] is expected, name
    assert set(prism.__all__) <= set(dir(prism))


def test_star_import_binds_all():
    namespace = {}
    exec("from prism import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(prism.__all__)


def test_unknown_name_raises():
    with pytest.raises(AttributeError):
        prism.no_such_name
    with pytest.raises(ImportError):
        exec("from prism import no_such_name", {})


def test_import_prism_loads_no_submodule():
    loaded = run_fresh(
        "import json, sys, prism\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('prism.'))))"
    )
    assert loaded == []


def loaded_by_command(argv):
    """The prism modules a fresh interpreter holds after ``prism.cli.main``,
    and which of ``fractions``, ``dataclasses`` and ``inspect`` it holds too."""
    code, loaded = run_fresh(
        "import io, json, sys\n"
        "import prism.cli\n"
        "sys.stdout = io.StringIO()\n"
        "code = prism.cli.main(%r)\n"
        "sys.stdout = sys.__stdout__\n"
        "print(json.dumps([code, sorted(m.removeprefix('prism.') for m in sys.modules\n"
        "    if m.startswith('prism.') or m in ('fractions', 'dataclasses', 'inspect'))]))"
        % (argv,)
    )
    assert code == 0, argv
    return set(loaded)


def test_each_command_loads_only_its_layers(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(prism.flagged_to_json(prism.guiding_examples()[0]))
    loaded = loaded_by_command(["isomax", "2"])
    assert "cube" in loaded
    assert loaded.isdisjoint({"priestley", "dispersion", "liegroups", "oracles"})
    loaded = loaded_by_command(["heights", str(path)])
    assert "dispersion" in loaded
    assert loaded.isdisjoint({"liegroups", "intlinalg", "cube", "oracles"})
    for argv in (["noetherian", "so3"], ["heights", "circle"]):
        loaded = loaded_by_command(argv)
        assert "liegroups" in loaded and loaded.isdisjoint({"cube", "oracles"}), argv
    # only the rational routines of intlinalg, which these commands never
    # reach, create Fractions
    for argv in (["heights", "circle"], ["cube", "torus:2"], ["noetherian", "so3"]):
        assert "fractions" not in loaded_by_command(argv), argv
    # the value classes need neither dataclasses nor the inspect module it
    # imports; the commands are those of the benchmark's cli-cold workload
    heights = prism.thomason_heights(prism.guiding_examples()[0])
    candidate = tmp_path / "candidate.json"
    candidate.write_text(json.dumps({**heights.heights, **heights.family_heights}))
    for argv in (["heights", "circle", "--bound", "3"],
                 ["heights", "circle", "--bound", "3", "--format", "json"],
                 ["heights", "o2"], ["noetherian", "so3"], ["isomax", "4"], ["show", "so3"],
                 ["closed-sets", "o2"], ["cube", "torus:2", "--bound", "3", "--format", "dot"],
                 ["check-dispersion", str(path), str(candidate)],
                 ["heights", str(path), "--format", "json"]):
        assert loaded_by_command(argv).isdisjoint({"dataclasses", "inspect"}), argv


def in_group_vocabulary(spec):
    """Whether ``group_from_spec`` reads ``spec`` as a group identifier: it
    raises KeyMismatch only outside its vocabulary, while a missing file or
    a malformed argument raises another error."""
    from prism.liegroups import group_from_spec

    try:
        group_from_spec(spec)
    except prism.KeyMismatch:
        return False
    except (OSError, ValueError):
        pass
    return True


def test_cli_literals_match_the_library():
    from prism import cube, liegroups, oracles

    assert cli._ORACLE_SUITES == tuple(sorted(oracles.SUITES))
    assert cli._ISOMAX_MAX_N == cube.ISOMAX_MAX_N
    assert cli._GROUP_NAMES == set(liegroups._GROUP_NAMES)
    assert cli._GROUP_KINDS == set(liegroups._GROUP_KINDS)
    for spec in ("circle", "o2", "so3", "nsu3t", "torus:2", "torus:x", "finite:x.json",
                 "semidirect:y.json", "nosuchgroup", "torus", "space.json", "circle.json",
                 "circle:2"):
        assert cli._is_group_spec(spec) == in_group_vocabulary(spec), spec
