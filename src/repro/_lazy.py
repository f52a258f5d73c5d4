"""Lazy package exports: a package imports a submodule on first use.

Every package ``__init__`` declares its exports as one table
``{submodule: (names, ...)}`` and binds what :func:`exports`
returns::

    from .. import _lazy

    __getattr__, __dir__, __all__ = _lazy.exports(__name__, {
        "cache": ("StageCache",),
        "pipeline": ("DecisionPipeline",),
    })

Module ``__getattr__`` and ``__dir__`` are PEP 562's hooks, used the
way Scientific Python's SPEC 1 uses them.  ``__all__`` is the table's
names in table order.  A name equal to its own key exports that
submodule itself; every other name is an attribute of its submodule.
The first access imports the submodule and caches the resolved object
in the package's namespace, so later accesses are plain attribute
reads and every name is the same object its defining module holds.
Any key can be reached as an attribute even when it exports nothing
under its own name.  An import error surfaces at that first access.
"""

import sys

__all__ = ["exports"]


def exports(package, table):
    """``(__getattr__, __dir__, __all__)`` for ``package``'s ``table``."""
    owner = {name: submodule
             for submodule, names in table.items() for name in names}
    exported = list(owner)

    def __getattr__(name):
        submodule = owner.get(name, name)
        if submodule not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # ``__import__``, unlike ``importlib.import_module``, goes through
        # the interpreter's import path that ``-X importtime`` reports.
        __import__(f"{package}.{submodule}")
        module = sys.modules[f"{package}.{submodule}"]
        value = module if name == submodule else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *exported})

    return __getattr__, __dir__, exported
