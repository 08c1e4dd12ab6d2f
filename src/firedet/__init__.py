"""firedet: a CPU-only, from-scratch fire-detection network.

The package provides rank-4 tensors with reverse-mode autodiff, the
convolution/normalization/pooling primitives built on them, the attention
and downsampling blocks that make up the detector, the full
backbone-neck-head graph with decode and non-maximum suppression, losses
and evaluation metrics, an analytic parameter/MAC profiler, and a command
line for inference, profiling, gradient checking, evaluation, and toy-scale
training.
"""

from .rng import Rng
from .tensor import (
    Parameter,
    Tensor,
    default_dtype,
    from_array,
    grad_check,
    kaiming_uniform,
    make_node,
    no_grad,
    scalar,
    using_dtype,
    zeros,
)

__version__ = "0.1.0"

__all__ = [
    "Rng",
    "Tensor",
    "Parameter",
    "from_array",
    "scalar",
    "zeros",
    "kaiming_uniform",
    "grad_check",
    "no_grad",
    "using_dtype",
    "default_dtype",
    "make_node",
    "__version__",
]
