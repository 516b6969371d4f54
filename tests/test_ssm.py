"""State-space module checks: init algebra, bilinear discretization,
kernel/scan equivalence, and gradient flow through the kernel op."""

import numpy as np
import pytest

import longvq.tensor as T
from longvq.rng import Rng
from longvq.ssm import (
    DiscreteSsm, SsmBank, SsmChannel, conv_causal_channels, discretize,
    init_s4, materialize_kernel, scan_recurrent, ssm_kernels,
)
from longvq.tensor import NumericsError, Tensor, finite_diff, grad, param, precision


@pytest.fixture(autouse=True)
def _float64():
    with precision("float64"):
        yield


def make_channel(n, rng, label="t"):
    a, b = init_s4(n)
    return SsmChannel(A=a, B_in=b, C_out=rng.normal((n,)),
                      D_skip=float(rng.normal()), log_dt=float(np.log(0.05)),
                      label=label)


# ---------------------------------------------------------------------------
# init

def test_init_values_n2():
    a, b = init_s4(2)
    np.testing.assert_allclose(b, [1.0, np.sqrt(3.0)], atol=1e-12)
    assert abs(a[0, 0] + 1.0) < 1e-12
    assert abs(a[0, 1]) < 1e-12
    assert abs(a[1, 0] + np.sqrt(3.0)) < 1e-12
    assert abs(a[1, 1] + 2.0) < 1e-12


def test_init_matches_direct_formula_reeval():
    # independent re-evaluation: entry-by-entry three-case sum
    for n in range(1, 9):
        a, b = init_s4(n)
        for i in range(n):
            assert abs(b[i] - np.sqrt(2 * i + 1)) < 1e-12
            for j in range(n):
                pij = np.sqrt((i + 0.5) * (j + 0.5))
                if i > j:
                    norm = -pij
                elif i == j:
                    norm = -0.5
                else:
                    norm = pij
                want = norm - pij if i != j else norm - (i + 0.5)
                assert abs(a[i, j] - want) < 1e-12, (n, i, j)


def test_init_lower_triangular_diag():
    for n in (1, 3, 8):
        a, _ = init_s4(n)
        assert np.all(np.triu(a, k=1) == 0.0)
        np.testing.assert_allclose(np.diag(a), -(np.arange(n) + 1.0),
                                   atol=1e-12)


def test_init_rejects_bad_n():
    with pytest.raises(ValueError):
        init_s4(0)


# ---------------------------------------------------------------------------
# discretization

def test_discretize_zero_state_matrix():
    ch = SsmChannel(A=np.zeros((1, 1)), B_in=np.array([2.0]),
                    C_out=np.array([1.0]), D_skip=0.0,
                    log_dt=float(np.log(0.3)))
    d = discretize(ch)
    np.testing.assert_allclose(d.A_bar, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(d.B_bar, [0.3 * 2.0], atol=1e-12)


def test_discretize_scalar_bilinear():
    ch = SsmChannel(A=np.array([[-1.0]]), B_in=np.array([1.0]),
                    C_out=np.array([1.0]), D_skip=0.0,
                    log_dt=float(np.log(0.5)))
    d = discretize(ch)
    np.testing.assert_allclose(d.A_bar, [[0.6]], atol=1e-12)
    np.testing.assert_allclose(d.B_bar, [0.4], atol=1e-12)


def test_discretize_spectral_radius_contracts():
    # power-iteration growth estimate on the discretized HiPPO system
    ch = make_channel(4, Rng(0))
    ch.log_dt = float(np.log(0.01))
    d = discretize(ch)
    v = Rng(1).normal((4,))
    v /= np.linalg.norm(v)
    growth = 1.0
    for _ in range(300):
        w = d.A_bar @ v
        growth = np.linalg.norm(w)
        v = w / growth
    assert growth < 1.0


def test_discretize_singular_names_channel():
    # A with eigenvalue 2/dt makes (I - dt/2 A) singular
    ch = SsmChannel(A=np.array([[2.0 / 0.5]]), B_in=np.array([1.0]),
                    C_out=np.array([1.0]), D_skip=0.0,
                    log_dt=float(np.log(0.5)), label="bad-ch")
    with pytest.raises(NumericsError, match="bad-ch"):
        discretize(ch)


# ---------------------------------------------------------------------------
# kernels and scans

def test_kernel_scalar_hand_iteration():
    d = DiscreteSsm(np.array([[0.6]]), np.array([0.4]), np.array([1.0]))
    np.testing.assert_allclose(materialize_kernel(d, 3), [0.4, 0.24, 0.144],
                               atol=1e-12)


def test_kernel_identity_abar():
    d = DiscreteSsm(np.eye(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(materialize_kernel(d, 5), np.ones(5), atol=0)


def test_scan_zero_input():
    d = DiscreteSsm(np.array([[0.6]]), np.array([0.4]), np.array([1.0]))
    np.testing.assert_array_equal(scan_recurrent(d, np.zeros(4)), np.zeros(4))


def test_scan_impulse_equals_kernel():
    rng = Rng(2)
    ch = make_channel(8, rng)
    d = discretize(ch)
    L = 64
    imp = np.zeros(L)
    imp[0] = 1.0
    np.testing.assert_allclose(scan_recurrent(d, imp),
                               materialize_kernel(d, L), atol=1e-12)


def test_scan_hand_values():
    d = DiscreteSsm(np.array([[0.6]]), np.array([0.4]), np.array([1.0]))
    np.testing.assert_allclose(scan_recurrent(d, np.array([1.0, 0, 0])),
                               [0.4, 0.24, 0.144], atol=1e-12)


def test_conv_equals_scan_random_channels():
    rng = Rng(3)
    for trial in range(10):
        n = int(rng.integers(1, 17))
        L = int(rng.integers(2, 257))
        ch = make_channel(n, rng, label=f"t{trial}")
        d = discretize(ch)
        u = rng.normal((L,))
        k = materialize_kernel(d, L)[None]
        y_conv = conv_causal_channels(T.Tensor(k), T.Tensor(u[None, :, None]),
                                      np.zeros(1)).data[0, :, 0]
        y_scan = scan_recurrent(d, u)
        assert np.max(np.abs(y_conv - y_scan)) < 1e-6


# ---------------------------------------------------------------------------
# the bank: d channels filtered and skipped in one pass

def make_bank(d, n, rng):
    bank = SsmBank(d=d, n=n, rng=rng.child("bank"))
    bank.D_skip.data[:] = rng.normal((d,))
    return bank


def test_apply_pure_skip():
    rng = Rng(4)
    bank = make_bank(3, 4, rng)
    bank.C_out.data[:] = 0.0     # kernel vanishes
    bank.D_skip.data[:] = 1.0
    x = rng.normal((2, 6, 3))
    np.testing.assert_allclose(bank(Tensor(x)).data, x, atol=1e-12)


def test_apply_impulse_response():
    rng = Rng(5)
    bank = make_bank(2, 4, rng)
    L = 16
    x = np.zeros((1, L, 2))
    x[0, 0, :] = 1.0
    y = bank(Tensor(x)).data
    for c, ch in enumerate(bank.channels()):
        want = materialize_kernel(discretize(ch), L)
        want[0] += ch.D_skip
        np.testing.assert_allclose(y[0, :, c], want, atol=1e-10)


def test_apply_equals_scan_plus_skip():
    rng = Rng(6)
    bank = make_bank(3, 8, rng)
    L = 32
    x = rng.normal((2, L, 3))
    y = bank(Tensor(x)).data
    for c, ch in enumerate(bank.channels()):
        for b in range(2):
            want = scan_recurrent(discretize(ch), x[b, :, c]) \
                + ch.D_skip * x[b, :, c]
            assert np.max(np.abs(y[b, :, c] - want)) < 1e-6


def test_apply_channel_count_mismatch():
    bank = make_bank(3, 2, Rng(7))
    with pytest.raises(ValueError, match="kernel bank shape"):
        bank(Tensor(np.zeros((1, 4, 2))))


def test_gradients_flow_through_channel_params():
    rng = Rng(8)
    bank = make_bank(2, 3, rng)
    x = param(rng.normal((2, 6, 2)), name="x")
    probe = Rng(9).normal((2, 6, 2))
    params = bank.params() + [x]

    def loss():
        return T.tsum(bank(x) * T.Tensor(probe))

    gs = grad(loss(), params)
    fd = finite_diff(lambda: loss().item(), params, eps=1e-6)
    for g, f, p in zip(gs, fd, params):
        err = np.linalg.norm(g - f) / max(np.linalg.norm(f), 1e-10)
        assert err < 1e-6, f"{p.name}: {err}"


def test_bank_matches_per_channel_path():
    # reference: each channel's kernel by state iteration, then a direct
    # causal convolution per batch element, plus the skip
    rng = Rng(10)
    bank = SsmBank(d=3, n=4, rng=rng.child("bank"))
    L = 12
    x = rng.normal((2, L, 3))
    y = bank(Tensor(x)).data
    for c, ch in enumerate(bank.channels()):
        k = materialize_kernel(discretize(ch), L)
        for b in range(2):
            want = np.convolve(k, x[b, :, c])[:L] + ch.D_skip * x[b, :, c]
            np.testing.assert_allclose(y[b, :, c], want, atol=1e-10)


def test_bank_kernels_equal_materialized_kernels():
    # the blocked orbit against state iteration, across block boundaries
    rng = Rng(15)
    bank = SsmBank(d=4, n=16, rng=rng.child("bank"))
    bank.log_dt.data[:] = np.linspace(np.log(0.001), np.log(0.1), 4)
    chans = bank.channels()
    for L in (1, 2, 3, 63, 64, 65, 127, 129, 1000, 4097):
        k = bank.kernels(L).data
        for c, ch in enumerate(chans):
            ref = materialize_kernel(discretize(ch), L)
            err = np.max(np.abs(k[c] - ref)) / np.max(np.abs(ref))
            assert err < 1e-12, (L, c, err)


def test_bank_kernel_op_grads_match_fd():
    rng = Rng(11)
    bank = SsmBank(d=2, n=3, rng=rng.child("bank"))
    params = [bank.C_out, bank.log_dt]
    for L in (7, 65, 130):
        probe = Rng(12).normal((2, L))

        def loss():
            return T.tsum(ssm_kernels(bank.C_out, bank.log_dt, bank.B_in,
                                      bank.A, L) * T.Tensor(probe))

        gs = grad(loss(), params)
        fd = finite_diff(lambda: loss().item(), params, eps=1e-6)
        for g, f, p in zip(gs, fd, params):
            err = np.linalg.norm(g - f) / max(np.linalg.norm(f), 1e-10)
            assert err < 1e-6, f"L={L} {p.name}: {err}"


def test_bank_grad_flows_to_input():
    rng = Rng(13)
    bank = SsmBank(d=2, n=3, rng=rng.child("bank"))
    x = param(rng.normal((1, 5, 2)), name="x")
    probe = Rng(14).normal((1, 5, 2))
    loss = T.tsum(bank(x) * T.Tensor(probe))
    gs = grad(loss, [x])
    fd = finite_diff(
        lambda: T.tsum(bank(x) * T.Tensor(probe)).item(), [x], eps=1e-6)
    err = np.linalg.norm(gs[0] - fd[0]) / np.linalg.norm(fd[0])
    assert err < 1e-6
