"""Input validation: every check raises its own exception type and message.

One row per check.  Each row calls the checked function with the one bad
input it guards against and names a fragment of the message, so a check
that disappears, or lets a NumPy error through in its place, fails its row.
"""

import numpy as np
import pytest

from firedet import checks
from firedet.fileio import write_ppm
from firedet.nn import (BatchNorm, Conv2dSpec, Module, concat_channels, conv2d, linear,
                        pool2d)
from firedet.rng import Rng
from firedet.synth import generate_dataset
from firedet.tensor import (Parameter, Tensor, grad_check, tsum, using_dtype, zeros)
from firedet.weights import ArchiveError, model_records, save_records

SPEC = Conv2dSpec(in_channels=4, out_channels=4, kernel=3, padding=1, has_bias=False)
W = zeros((4, 4, 3, 3))
X = zeros((1, 4, 5, 5))


def _duplicate_names() -> Module:
    """A module whose parameter and buffer share the name ``w``."""
    m = Module()
    m.w = Parameter(np.zeros((1, 1, 1, 1), dtype=np.float32))
    m.register_buffer("w", np.zeros((1, 1, 1, 1), dtype=np.float32))
    return m


# (id, call taking a scratch directory, exception type, message fragment)
CASES = [
    ("spec-channels", lambda tmp: Conv2dSpec(0, 4, 3),
     ValueError, "channel counts must be positive"),
    ("spec-kernel", lambda tmp: Conv2dSpec(4, 4, 0), ValueError, "bad geometry"),
    ("spec-stride", lambda tmp: Conv2dSpec(4, 4, 3, stride=0), ValueError, "bad geometry"),
    ("spec-groups", lambda tmp: Conv2dSpec(4, 6, 3, groups=4),
     ValueError, "groups=4 must divide in_channels=4 and out_channels=6"),
    ("spec-extent", lambda tmp: Conv2dSpec(1, 1, 5).out_hw(3, 3),
     ValueError, "output extent <= 0 for input 3x3"),
    ("conv-array-input", lambda tmp: conv2d(np.zeros((1, 4, 5, 5)), SPEC, W),
     TypeError, "conv2d expects Tensor inputs"),
    ("conv-channels", lambda tmp: conv2d(zeros((1, 3, 5, 5)), SPEC, W),
     ValueError, "input has 3 channels, spec expects 4"),
    ("conv-weight-shape", lambda tmp: conv2d(X, SPEC, zeros((4, 4, 1, 1))),
     ValueError, "weight shape (4, 4, 1, 1) != expected (4, 4, 3, 3)"),
    ("conv-bias-presence", lambda tmp: conv2d(X, SPEC, W, zeros((1, 4, 1, 1))),
     ValueError, "bias presence does not match has_bias=False"),
    ("conv-bias-shape",
     lambda tmp: conv2d(X, Conv2dSpec(4, 4, 3, padding=1), W, zeros((1, 3, 1, 1))),
     ValueError, "bias shape (1, 3, 1, 1) != (1, 4, 1, 1)"),
    ("batchnorm-channels", lambda tmp: BatchNorm(2)(X),
     ValueError, "input has 4 channels, layer has 2"),
    ("pool-kind", lambda tmp: pool2d(X, "median"),
     ValueError, "kind must be 'max' or 'avg', got 'median'"),
    ("pool-small-input", lambda tmp: pool2d(zeros((1, 1, 1, 1)), "max"),
     ValueError, "input 1x1 smaller than kernel 2"),
    ("concat-empty", lambda tmp: concat_channels([]),
     ValueError, "concat_channels needs at least one tensor"),
    ("concat-mismatch", lambda tmp: concat_channels([X, zeros((1, 4, 5, 4))]),
     ValueError, "concat mismatch"),
    ("linear-spatial", lambda tmp: linear(X, zeros((4, 4, 1, 1))),
     ValueError, "linear expects spatial extents 1x1"),
    ("linear-weight", lambda tmp: linear(zeros((1, 4, 1, 1)), zeros((6, 5, 1, 1))),
     ValueError, "weight shape (6, 5, 1, 1) incompatible with input (1, 4, 1, 1)"),
    ("dtype-unsupported", lambda tmp: using_dtype(np.int32),
     ValueError, "unsupported dtype"),
    ("item-non-scalar", lambda tmp: X.item(),
     ValueError, "item() requires a single element"),
    ("accumulate-shape",
     lambda tmp: Parameter(np.zeros((1, 1, 2, 2))).accumulate_grad(np.zeros((1, 1, 1, 1))),
     ValueError, "gradient shape (1, 1, 1, 1) does not match tensor shape (1, 1, 2, 2)"),
    ("backward-no-grad", lambda tmp: X.backward(),
     RuntimeError, "backward() on a tensor that does not require grad"),
    ("coerce-operand", lambda tmp: X + "1",
     TypeError, "cannot combine Tensor with str"),
    ("broadcast", lambda tmp: zeros((1, 2, 1, 1)) + zeros((1, 3, 1, 1)),
     ValueError, "are not broadcast-compatible"),
    ("axis-range", lambda tmp: tsum(X, axes=4), ValueError, "axes must be within 0..3"),
    ("grad-check-no-grad", lambda tmp: grad_check(lambda: tsum(X), [X]),
     ValueError, "grad_check requires parameters with requires_grad=True"),
    ("uniform-bounds", lambda tmp: Rng(0).uniform64(1, 1.0, 0.0),
     ValueError, "lo=1.0 > hi=0.0"),
    ("integers-range", lambda tmp: Rng(0).integers(1, 3, 3), ValueError, "empty range [3, 3)"),
    ("ppm-array", lambda tmp: write_ppm(tmp / "x.ppm", np.zeros((2, 2, 3))),
     ValueError, "expected (H, W, 3) uint8 image"),
    ("dataset-empty", lambda tmp: generate_dataset(0, 0, tmp / "set"),
     ValueError, "n_images must be positive"),
    ("records-duplicate", lambda tmp: model_records(_duplicate_names()),
     ArchiveError, "duplicate record names in model"),
    ("records-long-name",
     lambda tmp: save_records([("n" * 65536, np.zeros((1, 1, 1, 1), dtype=np.float32))]),
     ArchiveError, "record name too long"),
    ("gradcheck-scope", lambda tmp: checks.run_scope("nope"),
     ValueError, "unknown gradcheck scope 'nope'"),
]


@pytest.mark.parametrize("call, error, fragment", [row[1:] for row in CASES],
                         ids=[row[0] for row in CASES])
def test_bad_input_raises_its_own_error(tmp_path, call, error, fragment):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert fragment in str(info.value)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tensor_casts_integer_data_to_the_default_float_type(dtype):
    with using_dtype(dtype):
        t = Tensor(np.arange(4, dtype=np.int64).reshape(1, 1, 2, 2))
    assert t.dtype == dtype
    assert t.data.tolist() == [[[[0.0, 1.0], [2.0, 3.0]]]]
