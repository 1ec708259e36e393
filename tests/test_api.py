"""The public API: ``ebx.__all__`` is the union of the modules' ``__all__``."""

import ast
import importlib
import inspect
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

# str(inspect.signature(obj)) of every public callable except the error
# classes, whose constructors are Exception's; DEFAULT_TOL stands for its repr
SIGNATURES = {
    "ArvesonDerivative": "(T: 'np.ndarray', residual: 'float') -> None",
    "CStarCombination": (
        "(d1: 'int', d2: 'int', terms: 'tuple[tuple[np.ndarray, Channel], ...]') -> None"
    ),
    "CanonicalEBForm": (
        "(d1: 'int', d2: 'int', blocks: 'tuple[tuple[np.ndarray, np.ndarray], ...]') -> None"
    ),
    "Channel": (
        "(d1: 'int', d2: 'int', representation: 'Representation', label: 'str | None' = None, "
        "certificate: 'HolevoEnsemble | None' = None) -> None"
    ),
    "ChannelPredicates": (
        "(is_cp: 'bool', is_unital: 'bool', is_tp: 'bool', "
        "is_hermiticity_preserving: 'bool') -> None"
    ),
    "ChoiMatrix": "(d1: 'int', d2: 'int', matrix: 'np.ndarray') -> None",
    "CommutantReport": "(dim: 'int', is_irreducible: 'bool') -> None",
    "CqFlags": "(all_overlaps_nonzero: 'bool', min_overlap: 'float') -> None",
    "DecompositionCheck": (
        "(reconstruction_error: 'float', all_factors_extreme: 'bool', proper: 'bool', "
        "factor_diagnostics: 'tuple[str, ...]') -> None"
    ),
    "EBVerdict": (
        "(ppt: 'bool', conclusive: 'bool', is_eb: 'str', "
        "certificate: 'HolevoEnsemble | None') -> None"
    ),
    "EquivalenceCheck": "(equivalent: 'bool', witness_unitary: 'np.ndarray | None') -> None",
    "ExtremalityReport": (
        "(choi_rank: 'int', is_cstar_extreme: 'bool', canonical: 'CanonicalEBForm | None', "
        "is_cq_linear_extreme_in_ucp: 'bool | None', is_irreducible: 'bool') -> None"
    ),
    "FixedPointCheck": "(is_fixed: 'bool', commutes_with_all_kraus: 'bool') -> None",
    "HolevoEnsemble": (
        "(d1: 'int', d2: 'int', terms: 'tuple[tuple[np.ndarray, np.ndarray], ...]') -> None"
    ),
    "KrausSet": "(d1: 'int', d2: 'int', operators: 'tuple[np.ndarray, ...]') -> None",
    "LocatedPiece": "(block_index: 'int', R: 'np.ndarray') -> None",
    "RNDerivative": (
        "(R: 'np.ndarray', per_block: 'tuple[np.ndarray, ...]', residual: 'float') -> None"
    ),
    "RankBounds": "(choi_rank: 'int', eb_rank_lower: 'int', eb_rank_upper: 'int') -> None",
    "SeededRng": "(seed: 'int') -> None",
    "StinespringTriple": (
        "(d1: 'int', d2: 'int', dilation_dim: 'int', isometry: 'np.ndarray') -> None"
    ),
    "Tolerance": (
        "(rank_rel: 'float' = 1e-09, psd_floor: 'float' = 1e-09, "
        "eq_abs: 'float' = 1e-09) -> None"
    ),
    "adjoint": "(ch: 'Channel') -> 'Channel'",
    "apply": "(ch: 'Channel', x) -> 'np.ndarray'",
    "arveson_derivative": (
        "(phi: 'Channel', psi: 'Channel', "
        "tol: 'Tolerance' = DEFAULT_TOL) -> 'ArvesonDerivative'"
    ),
    "as_matrix": "(m) -> 'np.ndarray'",
    "channel_from_json": "(doc: 'Any') -> 'Channel'",
    "channel_from_map": (
        "(fn: 'Callable[[np.ndarray], np.ndarray]', d1: 'int', d2: 'int', "
        "label: 'str | None' = None) -> 'Channel'"
    ),
    "channel_to_json": "(ch: 'Channel') -> 'dict'",
    "choi_channel": (
        "(matrix, d1: 'int', d2: 'int', label: 'str | None' = None, "
        "certificate: 'HolevoEnsemble | None' = None) -> 'Channel'"
    ),
    "choi_to_kraus": "(c: 'ChoiMatrix', tol: 'Tolerance' = DEFAULT_TOL) -> 'KrausSet'",
    "commutant_dimension": "(ch: 'Channel', tol: 'Tolerance' = DEFAULT_TOL) -> 'CommutantReport'",
    "compose_ad": "(t, ch: 'Channel', label: 'str | None' = None) -> 'Channel'",
    "cq_remark_flags": "(form: 'CanonicalEBForm', tol: 'Tolerance' = DEFAULT_TOL) -> 'CqFlags'",
    "dominates_cp": "(big: 'Channel', small: 'Channel', tol: 'Tolerance' = DEFAULT_TOL) -> 'bool'",
    "dominates_eb": (
        "(big: 'Channel', small: 'Channel', tol: 'Tolerance' = DEFAULT_TOL) -> 'EBVerdict'"
    ),
    "eb_verdict": "(ch: 'Channel', tol: 'Tolerance' = DEFAULT_TOL) -> 'EBVerdict'",
    "evaluate": "(comb: 'CStarCombination', tol: 'Tolerance' = DEFAULT_TOL) -> 'Channel'",
    "extract_canonical": "(ch: 'Channel', tol: 'Tolerance' = DEFAULT_TOL) -> 'CanonicalEBForm'",
    "extremality_witness": (
        "(canonical: 'CanonicalEBForm', psi: 'Channel', "
        "tol: 'Tolerance' = DEFAULT_TOL) -> 'np.ndarray'"
    ),
    "fixed_point_check": "(ch: 'Channel', a, tol: 'Tolerance' = DEFAULT_TOL) -> 'FixedPointCheck'",
    "herm_eig": "(m, tol: 'Tolerance' = DEFAULT_TOL) -> 'tuple[np.ndarray, np.ndarray]'",
    "hermitian_basis": "(d: 'int') -> 'list[np.ndarray]'",
    "holevo_channel": "(terms, label: 'str | None' = None) -> 'Channel'",
    "holevo_to_kraus": "(h: 'HolevoEnsemble', tol: 'Tolerance' = DEFAULT_TOL) -> 'KrausSet'",
    "identity_channel": "(d: 'int') -> 'Channel'",
    "is_cstar_extreme": "(ch: 'Channel', tol: 'Tolerance' = DEFAULT_TOL) -> 'ExtremalityReport'",
    "is_ppt": "(ch: 'Channel', tol: 'Tolerance' = DEFAULT_TOL) -> 'bool'",
    "is_proper": "(comb: 'CStarCombination', tol: 'Tolerance' = DEFAULT_TOL) -> 'bool'",
    "is_psd": "(m, tol: 'Tolerance' = DEFAULT_TOL) -> 'bool'",
    "km_decompose": "(ch: 'Channel', tol: 'Tolerance' = DEFAULT_TOL) -> 'CStarCombination'",
    "kraus_channel": (
        "(operators, label: 'str | None' = None, "
        "certificate: 'HolevoEnsemble | None' = None) -> 'Channel'"
    ),
    "load_channel": "(path) -> 'Channel'",
    "locate_dominated_rank_one": (
        "(canonical: 'CanonicalEBForm', x, y, "
        "tol: 'Tolerance' = DEFAULT_TOL) -> 'LocatedPiece'"
    ),
    "matrix_units": "(d: 'int') -> 'list[np.ndarray]'",
    "max_abs": "(m) -> 'float'",
    "nullspace": "(m, tol: 'Tolerance' = DEFAULT_TOL) -> 'np.ndarray'",
    "partial_transpose_choi": "(choi: 'np.ndarray', d1: 'int', d2: 'int') -> 'np.ndarray'",
    "pinv": "(m, tol: 'Tolerance' = DEFAULT_TOL) -> 'np.ndarray'",
    "predicates": "(ch: 'Channel', tol: 'Tolerance' = DEFAULT_TOL) -> 'ChannelPredicates'",
    "psd_sqrt": "(m, tol: 'Tolerance' = DEFAULT_TOL) -> 'np.ndarray'",
    "random_cstar_extreme": (
        "(rng: 'SeededRng', d1: 'int', d2: 'int', n_blocks: 'int | None' = None, "
        "tol: 'Tolerance' = DEFAULT_TOL) -> 'Channel'"
    ),
    "random_unital_eb": (
        "(rng: 'SeededRng', d1: 'int', d2: 'int', n_terms: 'int', "
        "tol: 'Tolerance' = DEFAULT_TOL) -> 'Channel'"
    ),
    "rank_bounds": "(ch: 'Channel', tol: 'Tolerance' = DEFAULT_TOL) -> 'RankBounds'",
    "reconstruct": "(form: 'CanonicalEBForm', label: 'str | None' = None) -> 'Channel'",
    "rn_derivative": (
        "(canonical: 'CanonicalEBForm', psi: 'Channel', "
        "tol: 'Tolerance' = DEFAULT_TOL) -> 'RNDerivative'"
    ),
    "save_channel": "(ch: 'Channel', path) -> 'None'",
    "stinespring": "(ch: 'Channel', tol: 'Tolerance' = DEFAULT_TOL) -> 'StinespringTriple'",
    "svd_rank": "(m, tol: 'Tolerance' = DEFAULT_TOL) -> 'int'",
    "to_choi": "(ch: 'Channel') -> 'ChoiMatrix'",
    "unitary_equivalent": (
        "(a: 'CanonicalEBForm', b: 'CanonicalEBForm', "
        "tol: 'Tolerance' = DEFAULT_TOL) -> 'EquivalenceCheck'"
    ),
    "verify_decomposition": (
        "(comb: 'CStarCombination', target: 'Channel', "
        "tol: 'Tolerance' = DEFAULT_TOL) -> 'DecompositionCheck'"
    ),
}


def test_public_names_are_pinned():
    assert sorted(ebx.__all__) == PUBLIC_NAMES
    assert len(set(ebx.__all__)) == len(ebx.__all__)


def test_public_signatures_are_pinned():
    got = {}
    for name in ebx.__all__:
        obj = getattr(ebx, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            sig = str(inspect.signature(obj))
            got[name] = sig.replace(repr(ebx.DEFAULT_TOL), "DEFAULT_TOL")
    assert got == SIGNATURES


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


def _run_on_src(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports ebx from this checkout."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_star_import_is_warning_free():
    done = _run_on_src("from ebx import *; assert callable(eb_verdict) and __version__")
    assert done.returncode == 0, done.stderr


# six purge-and-import rounds; prints how many of the first five rounds' public
# classes are still alive, by name, after a collection
REIMPORT_PROBE = """
import collections, gc, sys, weakref
rounds = []
for _ in range(6):
    for name in [m for m in sys.modules if m.split(".")[0] == "ebx"]:
        del sys.modules[name]
    import ebx
    rounds.append([
        weakref.ref(obj) for obj in map(vars(ebx).get, ebx.__all__) if isinstance(obj, type)
    ])
gc.collect()
assert all(ref() is not None for ref in rounds[-1])
alive = collections.Counter(
    f"{cls.__module__}.{cls.__qualname__}"
    for refs in rounds[:-1] for ref in refs if (cls := ref()) is not None
)
print(dict(sorted(alive.items())))
"""


def test_reimport_frees_the_previous_import():
    # the benchmark times setup by re-importing ebx; an earlier import that
    # stays reachable (say, from typing's cache) keeps its modules in memory
    done = _run_on_src(REIMPORT_PROBE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "{}", f"alive of 5 earlier imports: {done.stdout.strip()}"


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


SRC = Path(ebx.__file__).resolve().parent

# each module imports, at module level, only modules of an earlier layer; the
# package's own names (``from . import __version__``) come from __init__
LAYERS = (
    ("errors",),
    ("linalg", "rng"),
    ("channel",),
    ("separability", "serialize"),
    ("extremality",),
    ("decomp",),
    ("__init__",),
    ("gallery",),
    ("cli",),
)


def _relative_imports(source: str) -> list[str]:
    """Modules of the package that a module imports at module level."""
    targets = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                targets.append(node.module)
            else:
                targets.extend(
                    alias.name if (SRC / f"{alias.name}.py").exists() else "__init__"
                    for alias in node.names
                )
    return targets


def test_modules_import_only_earlier_layers():
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    assert sorted(rank) == sorted(path.stem for path in SRC.glob("*.py"))
    upward = {}
    for path in sorted(SRC.glob("*.py")):
        targets = _relative_imports(path.read_text(encoding="utf-8"))
        if bad := [t for t in targets if rank[t] >= rank[path.stem]]:
            upward[path.stem] = bad
    assert upward == {}
    # a function-local import (a cycle broken at call time) is not counted
    assert _relative_imports("def f():\n    from .extremality import reconstruct\n") == []
    assert _relative_imports("from . import __version__, channel\n") == ["__init__", "channel"]
