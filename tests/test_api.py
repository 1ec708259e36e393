"""The public API: ``ebx.__all__`` is the union of the modules' ``__all__``."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import ebx

MODULES = (
    "channel", "decomp", "errors", "extremality", "linalg", "rng", "separability", "serialize"
)

PUBLIC_NAMES = [
    "ArvesonDerivative", "CStarCombination", "CanonicalEBForm", "Channel",
    "ChannelPredicates", "ChoiMatrix", "CoefficientsNotNormalized", "CommutantReport",
    "CqFlags", "DEFAULT_TOL", "DecompositionCheck", "DegenerateDraw", "DimensionMismatch",
    "EBVerdict", "EbxError", "EquivalenceCheck", "ExtremalityReport", "FixedPointCheck",
    "HolevoEnsemble", "InternalInconsistency", "KrausSet", "LocatedPiece", "NoCertificate",
    "NotCP", "NotDominated", "NotEB", "NotExtreme", "NotHermitian", "NotInvertible",
    "NotPSD", "NotUnital", "NotUnitalTP", "PPT_CONCLUSIVE_LIMIT", "ParseError",
    "PreconditionDomination", "RNDerivative", "RankBounds", "SeededRng",
    "StinespringTriple", "StructureViolation", "Tolerance", "VerificationFailed",
    "__version__", "adjoint", "apply", "arveson_derivative", "as_matrix",
    "channel_from_json", "channel_from_map", "channel_to_json", "choi_channel",
    "choi_to_kraus", "commutant_dimension", "compose_ad", "cq_remark_flags",
    "dominates_cp", "dominates_eb", "eb_verdict", "evaluate", "extract_canonical",
    "extremality_witness", "fixed_point_check", "herm_eig", "hermitian_basis",
    "holevo_channel", "holevo_to_kraus", "identity_channel", "is_cstar_extreme", "is_ppt",
    "is_proper", "is_psd", "km_decompose", "kraus_channel", "load_channel",
    "locate_dominated_rank_one", "matrix_units", "max_abs", "nullspace",
    "partial_transpose_choi", "pinv", "predicates", "psd_sqrt", "random_cstar_extreme",
    "random_unital_eb", "rank_bounds", "reconstruct", "rn_derivative", "save_channel",
    "stinespring", "svd_rank", "to_choi", "unitary_equivalent", "verify_decomposition",
]


def test_public_names_are_pinned():
    assert sorted(ebx.__all__) == PUBLIC_NAMES
    assert len(set(ebx.__all__)) == len(ebx.__all__)


def test_each_name_comes_from_exactly_one_module():
    seen = {"__version__": "ebx"}
    for modname in MODULES:
        module = importlib.import_module(f"ebx.{modname}")
        for name in module.__all__:
            assert name not in seen, f"{name} in both {seen[name]} and {modname}"
            seen[name] = modname
            obj = getattr(ebx, name)
            assert obj is getattr(module, name)
            if hasattr(obj, "__qualname__"):
                assert (obj.__module__, obj.__qualname__) == (module.__name__, name)
    assert sorted(seen) == PUBLIC_NAMES


def test_star_import_is_warning_free():
    code = "from ebx import *; assert callable(eb_verdict) and __version__"
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that never appear as a name."""
    tree = ast.parse(source)
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_every_module_level_import_is_used():
    src = Path(ebx.__file__).resolve().parent
    unused = {
        path.name: names
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
    assert _unused_imports("from .channel import commutant_dimension, to_choi\nto_choi()\n") == [
        "commutant_dimension"
    ]
