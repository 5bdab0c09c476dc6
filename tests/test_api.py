"""The package's public names: each module's ``__all__``, re-exported by ``imspe``."""

import imspe
from imspe import criterion, errors, integrals, kernels, quadrature, reference, search

MODULES = (errors, kernels, integrals, criterion, quadrature, search, reference)


def test_package_reexports_each_module_all_once():
    names = [name for module in MODULES for name in module.__all__]
    assert imspe.__all__ == ["__version__", *names]
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(imspe, name) is getattr(module, name)
