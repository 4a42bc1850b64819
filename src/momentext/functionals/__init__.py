"""Positive functionals on the truncated algebras: construction from atomic
measures, Gram matrices with exact PSD certificates, extension feasibility,
and atom recovery.

The names below load with their module on first access (PEP 562), so
importing the package runs none of its modules.
"""

from .. import _EXPORTS as _PACKAGE_EXPORTS, _lazy_exports

# exported name -> defining module: the package's names from this layer, and Key
_EXPORTS = {name: module.removeprefix("functionals.")
            for name, module in _PACKAGE_EXPORTS.items() if module.startswith("functionals.")}
_EXPORTS["Key"] = "core"

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
