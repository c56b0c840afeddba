"""The exported API's settable defaults: each one is listed here, so a new knob is a visible edit."""

import inspect

import tpslab

# every defaulted parameter or dataclass field of a callable exported by tpslab,
# and of the public methods of its exported classes, with its default
DEFAULTED = {
    "SampledProfile": {"truncation_warning": None},
    "TensorProductStructure": {
        "unitary": None,
        "label_left": None,
        "label_right": None,
        "relabeling": None,
        "reflector": None,
    },
    "demo_bell": {"samples": 1000, "seed": 42},
    "demo_spins": {"samples": 1000, "seed": 42},
    "demo_sum_diff": {"truncation_tol": 1e-10},
    "eigh": {"tol": 1e-9},
    "haar_state": {"shape": ()},
    "qcf_local": {"witness_threshold": None},
    "random_entangled_state": {"min_alpha_ratio": 1e-3, "shape": ()},
    "schmidt": {"truncation_tol": 1e-10},
}


def defaulted(obj) -> dict:
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # a builtin __init__, as of an exception class, has no signature
        return {}
    return {p.name: p.default for p in params if p.default is not p.empty}


def exported_defaults() -> dict:
    found = {}
    for name, obj in vars(tpslab).items():
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        found[name] = defaulted(obj)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                method = inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod))
                if method and not attr.startswith("_"):
                    found[f"{name}.{attr}"] = defaulted(getattr(obj, attr))
    return {name: d for name, d in found.items() if d}


def test_every_exported_default_is_listed():
    assert exported_defaults() == DEFAULTED
