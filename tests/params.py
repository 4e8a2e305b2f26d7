"""ParamSets filled with given tensors, for tests that set parameters by hand."""

import numpy as np

from pertsets import nn


def param_set(values: dict) -> nn.ParamSet:
    """A ParamSet holding copies of the named arrays in one flat buffer of
    their common dtype (float32 when there are none)."""
    values = {name: np.asarray(v) for name, v in values.items()}
    params = nn.ParamSet({name: v.shape for name, v in values.items()},
                         np.result_type(*values.values()) if values else np.float32)
    for name, value in values.items():
        params.values[name][...] = value
    return params
