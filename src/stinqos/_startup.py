"""How stinqos loads numpy and scipy.special: the one place that decides it.

Every module takes numpy as ``from ._startup import np``, a lazy module
that runs numpy's code on its first attribute access, so a command that
computes no array loads none of it; scipy.special is reached only through
``_special()``. Two patches there cut the import of scipy.special after
numpy, each measured with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1:

* numpy's submodules that stinqos never uses stand as lazy modules, as
  scipy's array-API shim asks numpy for every name it lists (97 -> 49 ms);
* a stand-in for scipy's numpydoc parser, _UnparsedDoc, runs during that
  import, so scipy 1.16+'s xp_capabilities parses none of the 94
  docstrings it would.

Every name but ``np`` keeps its underscore: perfbench's tracer wraps each
public function of a stinqos module, and would time each call of
``_special()``, one for every erfc or hyp1f1 evaluation.
"""
from __future__ import annotations

import importlib.util
import sys


def _lazy_module(name: str):
    """The module ``name`` as one that loads on its first attribute access,
    so a command that never uses it loads none of it; None if there is no
    such module.

    A module already registered under ``name``, lazy or loaded, is returned
    as it is; otherwise the lazy one is registered there, and a later import
    of ``name`` loads it. Modules bind ``np`` through this, not by an import
    statement, which reads ``__spec__`` and so loads a lazy module at once.
    Before Python 3.12 the first load is not thread-safe: a caller that
    starts threads should import numpy and scipy.special first, and stinqos
    then makes nothing lazy.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        return None
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")

# numpy submodules stinqos never imports. numpy 2 loads each on first
# attribute access, and scipy's array-API shim asks numpy for every name in
# dir(numpy), so importing scipy.special would execute them all (f2py alone
# some 30 ms) unless they stand there as lazy modules.
_UNUSED_NUMPY_SUBMODULES = ("f2py", "testing", "ma", "ctypeslib", "rec", "char",
                            "strings", "typing")


class _UnparsedDoc:
    """Stands in for scipy's numpydoc parser, FunctionDoc, while
    scipy.special imports. scipy's xp_capabilities decorator parses the
    docstring of each special function it registers (94 in scipy 1.17) to
    append an array-API support note; this parses nothing, takes the note
    into a throwaway list and gives back the docstring as it was."""

    def __init__(self, func):
        self._func = func

    def __getitem__(self, section):
        return []

    def __str__(self):
        # a signature line, which the decorator drops, then the docstring
        return f"{self._func.__name__}\n{self._func.__doc__ or ''}"


def _special():
    """scipy.special. Before its first import, each of numpy's
    _UNUSED_NUMPY_SUBMODULES that numpy would load on access is set on numpy
    as a lazy module, which runs its code only when it is first used.

    That first import also runs with _UnparsedDoc in place of the FunctionDoc
    of scipy._lib._array_api, restored once it ends, so the special
    functions keep their own docstrings without scipy's array-API note; the
    functions and scipy's capabilities table are as without it. Should the
    import fail that way, it runs again with scipy's own parser. A scipy
    without that FunctionDoc imports as it is.
    """
    if "scipy.special" not in sys.modules:
        for name in _UNUSED_NUMPY_SUBMODULES:
            # only a submodule numpy lists but has not loaded; vars, not
            # hasattr, which would load it
            if name not in vars(np) and name in dir(np):
                module = _lazy_module(f"numpy.{name}")
                if module is not None:
                    setattr(np, name, module)
        # after the loop: this import runs scipy's array-API shim, which
        # would otherwise load the submodules the loop leaves lazy
        try:
            from scipy._lib import _array_api
        except ImportError:
            _array_api = None
        parser = getattr(_array_api, "FunctionDoc", None)
        if parser is not None:
            _array_api.FunctionDoc = _UnparsedDoc
            try:
                import scipy.special
            except Exception:
                # a scipy whose decorator needs more of the parser: the
                # plain import below, at the cost of the parse
                pass
            finally:
                _array_api.FunctionDoc = parser
    import scipy.special
    return scipy.special
