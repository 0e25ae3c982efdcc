"""Exact-integer continued fractions, continuants, asymmetry types, and congruences.

`import cfasym` runs none of the seven submodules below. It registers each one
in `sys.modules` and on the package through `importlib.util.LazyLoader`, and
a submodule runs the first time one of its attributes is read, on it or
through a name the package exports. So a CLI start compiles the CLI core,
its subcommand's group and the modules they read. Two consequences: an error
in a submodule's body shows at its first use, not at `import cfasym`; and the
library is single-threaded, since Python 3.10-3.11's `LazyLoader` is not
thread-safe the first time a module is touched (3.12 added a lock).

To keep it so, a submodule reads a sibling as a module at call time (`from . import
cf`, then `cf.expand(...)`), not by name (`from .cf import expand`), which
would run `cf` whenever the importer runs, and whose copy of the name a
test would have to patch as well as the owner's. Only a sibling that every
operation of the importer needs is imported by name: `errors` everywhere,
and `continuants` in `cf` and `asymmetry`.
"""

import importlib.util
import sys

_EXPORTS = {
    "errors": ("DomainError", "FoldedFormError"),
    "continuants": ("anticontinuant", "anticontinuant_range", "continuant",
                    "continuant_range", "euler_residual", "fibonacci"),
    "cf": ("ParityPrediction", "alternate_expansion", "evaluate", "expand",
           "expand_with_parity", "parity_by_inverse", "representations"),
    "asymmetry": ("AsymmetryDecomposition", "ExtendedAsymmetryType", "ParametricFamily",
                  "TypeCatalog", "compose", "decompose", "enumerate_types",
                  "extended_type", "type_value"),
    "exhaustive": ("verify_enumeration",),
    "congruence": ("CongruenceSpec", "ExceptionalCertificate", "FoldedForm", "FoldedParams",
                   "candidate_pairs", "exceptional_candidates", "folded_expand_classify",
                   "folded_normalize", "main_theorem_specs", "solve_quadratic",
                   "true_exceptions"),
    "verifier": ("TableDocument", "VerificationReport", "build_table", "run_battery",
                 "verify_identities", "verify_main_theorem"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_OWNER)

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)  # runs nothing yet: the module runs on first use
del _name, _spec, _module


def __getattr__(name):
    # the owner comes from the package globals, where a tracer may have put a view of it
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
