import math
import sys
import threading

import numpy as np
import pytest

from firedet.rng import Rng
from firedet.tensor import (Parameter, Tensor, atan, from_array, grad_check,
                            maximum, minimum, no_grad, scalar, slice4, tmean,
                            tsum, using_dtype, zeros)


def p4(values) -> Parameter:
    arr = np.asarray(values, dtype=np.float64).reshape(1, -1, 1, 1)
    return Parameter(arr)


def test_square_sum_gradient():
    p = p4([1.0, 2.0, 3.0])
    loss = tsum(p * p)
    loss.backward()
    assert np.allclose(p.grad.reshape(-1), [2.0, 4.0, 6.0])


def test_relu_subgradient_zero_at_negative_and_zero():
    p = p4([-1.0, 0.0, 2.0])
    tsum(p.relu()).backward()
    assert p.grad.reshape(-1).tolist() == [0.0, 0.0, 1.0]


def test_unary_values():
    with using_dtype(np.float64):
        x = from_array(np.zeros((1, 1, 1, 1)))
        assert x.sigmoid().item() == 0.5
        assert x.softplus().item() == pytest.approx(math.log(2.0), rel=1e-12)
        assert x.silu().item() == 0.0
        big = from_array(np.full((1, 1, 1, 1), 500.0))
        assert np.isfinite(big.sigmoid().item()) and big.sigmoid().item() == 1.0
        assert big.softplus().item() == pytest.approx(500.0)
        neg = from_array(np.full((1, 1, 1, 1), -500.0))
        assert neg.softplus().item() == pytest.approx(0.0, abs=1e-15)


def test_broadcast_add_mul_and_grad_reduction():
    x = Parameter(np.ones((2, 3, 4, 4)))
    c = Parameter(np.full((1, 3, 1, 1), 2.0))
    tsum(x * c).backward()
    assert np.allclose(x.grad, 2.0)
    assert np.allclose(c.grad, 2 * 4 * 4)  # summed over broadcast axes
    x.zero_grad(); c.zero_grad()
    tsum(x + c).backward()
    assert np.allclose(c.grad, 2 * 4 * 4)


def test_scalar_broadcast():
    x = Parameter(np.full((1, 2, 2, 2), 3.0))
    y = x * 2.0 + 1.0
    assert np.allclose(y.data, 7.0)
    tsum(y).backward()
    assert np.allclose(x.grad, 2.0)


def test_min_max_tie_routes_to_first():
    a = p4([1.0, 5.0])
    b = p4([1.0, 2.0])
    tsum(minimum(a, b)).backward()
    assert a.grad.reshape(-1).tolist() == [1.0, 0.0]
    assert b.grad.reshape(-1).tolist() == [0.0, 1.0]
    a.zero_grad(); b.zero_grad()
    tsum(maximum(a, b)).backward()
    assert a.grad.reshape(-1).tolist() == [1.0, 1.0]
    assert b.grad.reshape(-1).tolist() == [0.0, 0.0]


def test_grad_accumulates_until_zeroed():
    p = p4([1.0])
    tsum(p * 3.0).backward()
    tsum(p * 3.0).backward()
    assert p.grad.reshape(-1).tolist() == [6.0]
    p.zero_grad()
    tsum(p * 3.0).backward()
    assert p.grad.reshape(-1).tolist() == [3.0]


def test_diamond_graph_accumulation():
    p = p4([2.0])
    y = p * p + p * 3.0
    y.backward()
    assert p.grad.reshape(-1).tolist() == [7.0]  # 2x + 3


def test_no_grad_blocks_tape():
    p = p4([2.0])
    with no_grad():
        y = p * p
    assert y._parents == () and not y.requires_grad


def test_no_grad_is_per_thread():
    # Overlapping no_grad blocks in several threads must each switch off and
    # restore only their own thread's flag.
    p = p4([2.0])
    barrier = threading.Barrier(4, timeout=10)
    taped = []

    def work():
        for _ in range(200):
            with no_grad():
                barrier.wait()
            taped.append((p * p).requires_grad)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert len(taped) == 800 and all(taped)
    assert (p * p).requires_grad


def test_backward_frees_tape():
    p = p4([2.0])
    y = p * p
    mid = y * 1.0
    mid.backward()
    assert mid._parents == () and mid._bwd is None


def test_mean_and_sum_keep_rank4():
    x = from_array(np.arange(24.0).reshape(2, 3, 2, 2))
    assert tsum(x).shape == (1, 1, 1, 1)
    assert tmean(x, axes=(2, 3)).shape == (2, 3, 1, 1)
    assert tmean(x).item() == pytest.approx(11.5)


def test_slice4_and_backward_scatter():
    x = Parameter(np.arange(16.0).reshape(1, 4, 2, 2))
    s = slice4(x, c=slice(1, 3))
    assert s.shape == (1, 2, 2, 2)
    tsum(s).backward()
    expect = np.zeros((1, 4, 2, 2))
    expect[:, 1:3] = 1.0
    assert np.array_equal(x.grad, expect)
    with pytest.raises(ValueError):
        slice4(x, c=slice(0, 4, 2))


def test_rank4_enforced():
    with pytest.raises(ValueError):
        Tensor(np.zeros((3, 3)))


def test_backward_default_seed_is_ones():
    x = Parameter(np.ones((1, 2, 1, 1)))
    (x * 2.0).backward()
    assert np.allclose(x.grad, 2.0)
    with pytest.raises(ValueError):
        (x * 2.0).backward(np.ones((1, 3, 1, 1)))


def test_linearity_of_backward():
    rng = Rng(5)
    data = np.asarray(rng.uniform64(8, -1, 1)).reshape(1, 2, 2, 2)
    p1 = Parameter(data.copy())
    p2 = Parameter(data.copy())
    tsum(p1.silu()).backward()
    (tsum(p2.silu()) * 3.5).backward()
    assert np.allclose(3.5 * p1.grad, p2.grad, rtol=1e-12)


def test_grad_check_polynomial():
    with using_dtype(np.float64):
        p = p4([1.0, 2.0, 3.0])
        err = grad_check(lambda: tsum(p * p), [p])
        assert err < 1e-9


def test_grad_check_rejects_nonscalar():
    p = Parameter(np.ones((1, 2, 1, 1)))
    with pytest.raises(ValueError):
        grad_check(lambda: p * 1.0, [p])


def test_dtype_context():
    with using_dtype(np.float64):
        assert zeros((1, 1, 1, 1)).dtype == np.float64
    assert zeros((1, 1, 1, 1)).dtype == np.float32
    assert scalar(1.5).shape == (1, 1, 1, 1)


def test_atan_value():
    x = from_array(np.full((1, 1, 1, 1), 1.0))
    assert atan(x).item() == pytest.approx(math.pi / 4)
