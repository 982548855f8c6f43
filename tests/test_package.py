import opendicke
from opendicke import eigen, matrices, model, scattering, squeezing

MODULES = (model, matrices, eigen, scattering, squeezing)


def test_package_names_are_the_modules_all_in_order():
    names = [name for module in MODULES for name in module.__all__]
    assert opendicke.__all__ == names
    assert len(set(names)) == len(names)


def test_each_package_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(opendicke, name) is getattr(module, name), (module.__name__, name)
