"""The package's public surface."""

import types

import corrldp


def test_all_names_functions_and_classes_not_submodules():
    assert len(corrldp.__all__) == len(set(corrldp.__all__))
    for name in corrldp.__all__:
        assert not isinstance(getattr(corrldp, name), types.ModuleType), name
    for name in ("attack", "beacon", "data", "mechanism", "ordering", "rr", "experiments"):
        assert name not in corrldp.__all__
    assert {"attack_population", "rr_postprocess_population", "perturb_population"} <= set(corrldp.__all__)
