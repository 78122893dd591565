"""symsum: a symbolic calculus and proof checker for sums of symplectic
4-manifolds.

Manifolds are expression trees over a small atom catalog, with marked
surfaces carrying exact eps-linear areas.  The rewrite module checks
claimed equivalence chains rule by rule, tracking whether each step is
a symplectomorphism ("=") or a weak deformation ("~"), and cross-checks
the Euler characteristic and signature at every step.

The names below load lazily (PEP 562): `import symsum` imports no
submodule, and the first use of a name imports the module that
defines it.  So do the submodules that `import symsum` used to load.
"""

__version__ = "0.1.0"

# each exported name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(("AreaValue", "area"), "areas"),
    **dict.fromkeys(
        (
            "AdmissibilityError",
            "AtomNode",
            "BlowUp",
            "Desing",
            "EllipticSurface",
            "EquivLevel",
            "FourSum",
            "GluingChoice",
            "ManifoldExpr",
            "MarkError",
            "PairSum",
            "ProjectivePlane",
            "ProjectivePlaneReversed",
            "RationalSurface",
            "RuledSurface",
            "SurfaceMark",
            "SymsumError",
            "Thicken",
            "Thin",
            "Violation",
            "desingularize",
            "fourfold_violations",
            "pairwise_violations",
            "validate_ruled",
        ),
        "core",
    ),
    **dict.fromkeys(
        ("InvariantVector", "atom_invariants", "en_inductive_invariants", "expr_invariants"),
        "invariants",
    ),
    **dict.fromkeys(
        (
            "InvariantDriftError",
            "ProofStep",
            "RuleError",
            "Verdict",
            "apply_rule",
            "check_equiv",
        ),
        "rewrite",
    ),
    **dict.fromkeys(
        ("RunResult", "ScriptError", "parse", "print_script", "run", "serialize_expr"),
        "script",
    ),
    **dict.fromkeys(
        (
            "apply_shifts",
            "blow_down",
            "fourfold_sum",
            "rescale",
            "split_ruled",
        ),
        "sums",
    ),
}

_SUBMODULES = ("areas", "core", "invariants", "record", "rewrite", "script", "sums")

__all__ = list(_HOMES)


def __getattr__(name):
    # `__import__` binds the submodule here, under its name; unlike
    # `importlib.import_module`, `python -X importtime` reports it
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")
    value = getattr(globals()[home], name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
