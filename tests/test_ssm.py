"""State-space module checks: init algebra, bilinear discretization,
kernel/scan equivalence, and the blocked scan op against the references
and finite differences."""

import re

import numpy as np
import pytest
from scipy.signal import cont2discrete

import longvq.tensor as T
from longvq.rng import Rng
from longvq.ssm import (
    DT_MAX, DT_MIN, SsmBank, conv_causal_channels, discretize, init_s4,
    materialize_kernel, scan_recurrent, ssm_kernels, ssm_scan,
)
from longvq.tensor import NumericsError, Tensor, finite_diff, grad, precision


@pytest.fixture(autouse=True)
def _float64():
    with precision("float64"):
        yield


def bank_channels(bank):
    """Per-channel oracle views (A_bar, B_bar, C, D) of a bank's current
    values."""
    a_bar, b_bar = discretize(*init_s4(bank.n), np.exp(bank.log_dt.data))
    return [(a_bar[c], b_bar[c], bank.C_out.data[c],
             float(bank.D_skip.data[c])) for c in range(bank.d)]


def make_channel(n, rng, dt=0.05):
    """One S4 channel at step dt: (A_bar, B_bar, C) with a random C."""
    a, b = init_s4(n)
    a_bar, b_bar = discretize(a, b, [dt])
    return a_bar[0], b_bar[0], rng.normal((n,))


# ---------------------------------------------------------------------------
# init

def test_init_values_n2():
    a, b = init_s4(2)
    np.testing.assert_allclose(b, [1.0, np.sqrt(3.0)], atol=1e-12)
    assert a[0, 0] == -1.0 and a[1, 1] == -2.0
    assert a[0, 1] == 0.0
    assert abs(a[1, 0] + np.sqrt(3.0)) < 1e-12


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
    for n in (1, 3, 8, 16, 64):
        a, _ = init_s4(n)
        assert np.all(np.triu(a, k=1) == 0.0)
        # the diagonal is exactly -(i+1), not -(i+1) up to round-off
        np.testing.assert_array_equal(np.diag(a), -(np.arange(n) + 1.0))


def test_init_rejects_bad_n():
    with pytest.raises(ValueError):
        init_s4(0)


# ---------------------------------------------------------------------------
# discretization

def test_discretize_zero_state_matrix():
    a_bar, b_bar = discretize(np.zeros((1, 1)), [2.0], [0.3])
    np.testing.assert_allclose(a_bar[0], [[1.0]], atol=1e-12)
    np.testing.assert_allclose(b_bar[0], [0.3 * 2.0], atol=1e-12)


def test_discretize_scalar_bilinear():
    a_bar, b_bar = discretize(np.array([[-1.0]]), [1.0], [0.5])
    np.testing.assert_allclose(a_bar[0], [[0.6]], atol=1e-12)
    np.testing.assert_allclose(b_bar[0], [0.4], atol=1e-12)


def test_discretize_matches_scipy_bilinear():
    # the S4 A at several state sizes and steps against scipy's own
    # bilinear (Tustin) discretization
    for n in (1, 4, 16, 32):
        a, b = init_s4(n)
        dts = np.geomspace(1e-3, 0.1, 7)
        a_bar, b_bar = discretize(a, b, dts)
        assert a_bar.dtype == b_bar.dtype == np.float64
        assert a_bar.shape == (7, n, n) and b_bar.shape == (7, n)
        for c, dt in enumerate(dts):
            ad, bd, *_ = cont2discrete((a, b[:, None], np.eye(1, n),
                                        np.zeros((1, 1))), dt,
                                       method="bilinear")
            for got, want in ((a_bar[c], ad), (b_bar[c], bd[:, 0])):
                err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert err < 1e-13, (n, dt, err)


def test_discretize_spectral_radius_contracts():
    # power-iteration growth estimate on the discretized HiPPO system
    a_bar, _, _ = make_channel(4, Rng(0), dt=0.01)
    v = Rng(1).normal((4,))
    v /= np.linalg.norm(v)
    growth = 1.0
    for _ in range(300):
        w = a_bar @ v
        growth = np.linalg.norm(w)
        v = w / growth
    assert growth < 1.0


def test_discretize_singular_names_channel():
    # A with eigenvalue 2/dt makes (I - dt/2 A) singular: channel 1 only
    with pytest.raises(NumericsError, match="channel 'c1'"):
        discretize(np.array([[2.0 / 0.5]]), [1.0], [0.1, 0.5, 0.2])


# ---------------------------------------------------------------------------
# kernels and scans

def test_kernel_scalar_hand_iteration():
    np.testing.assert_allclose(
        materialize_kernel(np.array([[0.6]]), [0.4], [1.0], 3),
        [0.4, 0.24, 0.144], atol=1e-12)


def test_kernel_identity_abar():
    np.testing.assert_allclose(
        materialize_kernel(np.eye(2), np.array([1.0, 0.0]), [1.0, 0.0], 5),
        np.ones(5), atol=0)


def test_scan_zero_input():
    np.testing.assert_array_equal(
        scan_recurrent(np.array([[0.6]]), np.array([0.4]), [1.0],
                       np.zeros(4)), np.zeros(4))


def test_scan_impulse_equals_kernel():
    chan = make_channel(8, Rng(2))
    L = 64
    imp = np.zeros(L)
    imp[0] = 1.0
    np.testing.assert_allclose(scan_recurrent(*chan, imp),
                               materialize_kernel(*chan, L), atol=1e-12)


def test_scan_hand_values():
    np.testing.assert_allclose(
        scan_recurrent(np.array([[0.6]]), np.array([0.4]), [1.0],
                       np.array([1.0, 0, 0])),
        [0.4, 0.24, 0.144], atol=1e-12)


def test_conv_equals_scan_random_channels():
    rng = Rng(3)
    for trial in range(10):
        n = int(rng.integers(1, 17))
        L = int(rng.integers(2, 257))
        chan = make_channel(n, rng)
        u = rng.normal((L,))
        k = materialize_kernel(*chan, L)[None]
        y_conv = conv_causal_channels(k, u[None, :, None],
                                      np.zeros(1))[0, :, 0]
        y_scan = scan_recurrent(*chan, u)
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
    for c, (a_bar, b_bar, cc, skip) in enumerate(bank_channels(bank)):
        want = materialize_kernel(a_bar, b_bar, cc, L)
        want[0] += skip
        np.testing.assert_allclose(y[0, :, c], want, atol=1e-10)


def test_apply_equals_scan_plus_skip():
    # three blocks of the scan, the last one partial
    rng = Rng(6)
    bank = make_bank(3, 8, rng)
    L = 150
    x = rng.normal((2, L, 3))
    y = bank(Tensor(x)).data
    for c, (a_bar, b_bar, cc, skip) in enumerate(bank_channels(bank)):
        for b in range(2):
            want = scan_recurrent(a_bar, b_bar, cc, x[b, :, c]) \
                + skip * x[b, :, c]
            assert np.max(np.abs(y[b, :, c] - want)) < 1e-6


def test_apply_channel_count_mismatch():
    bank = make_bank(3, 2, Rng(7))
    with pytest.raises(ValueError, match="input has 2 channels, the SSM "
                                         "bank 3"):
        bank(Tensor(np.zeros((1, 4, 2))))


def test_gradients_flow_through_channel_params():
    rng = Rng(8)
    bank = make_bank(2, 3, rng)
    x = Tensor(rng.normal((2, 6, 2)), requires_grad=True, name="x")
    probe = Rng(9).normal((2, 6, 2))
    params = bank.params() + [x]

    def loss():
        return T.tsum(bank(x) * T.Tensor(probe))

    gs = grad(loss(), params)
    fd = finite_diff(loss, params, eps=1e-6)
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
    for c, (a_bar, b_bar, cc, skip) in enumerate(bank_channels(bank)):
        k = materialize_kernel(a_bar, b_bar, cc, L)
        for b in range(2):
            want = np.convolve(k, x[b, :, c])[:L] + skip * x[b, :, c]
            np.testing.assert_allclose(y[b, :, c], want, atol=1e-10)


def test_bank_kernels_equal_materialized_kernels():
    # the scan's impulse response against state iteration, across block
    # boundaries
    rng = Rng(15)
    bank = SsmBank(d=4, n=16, rng=rng.child("bank"))
    bank.log_dt.data[:] = np.linspace(np.log(0.001), np.log(0.1), 4)
    chans = bank_channels(bank)
    for L in (1, 2, 3, 63, 64, 65, 127, 129, 1000, 4097):
        k = bank.kernels(L)
        for c, (a_bar, b_bar, cc, _) in enumerate(chans):
            ref = materialize_kernel(a_bar, b_bar, cc, L)
            err = np.max(np.abs(k[c] - ref)) / np.max(np.abs(ref))
            assert err < 1e-12, (L, c, err)


# ---------------------------------------------------------------------------
# the blocked scan: every block count, against the references

# (B, L): one position; under a block; one block; a partial second block;
# three blocks, the last partial; four full blocks
SCAN_SHAPES = [(2, 1), (1, 7), (2, 64), (1, 100), (2, 150), (1, 256)]


def scan_bank(d, n, rng):
    """A bank with one channel at each end of the step range."""
    bank = make_bank(d, n, rng)
    bank.log_dt.data[:] = np.linspace(np.log(DT_MIN), np.log(DT_MAX), d)
    return bank


@pytest.mark.parametrize("B,L", SCAN_SHAPES)
def test_scan_equals_recurrence_and_fft_conv(B, L):
    rng = Rng(17)
    bank = scan_bank(3, 16, rng)
    x = rng.normal((B, L, 3))
    y = bank(Tensor(x)).data
    conv = conv_causal_channels(ssm_kernels(bank.C_out.data, bank.log_dt.data,
                                            L),
                                x, bank.D_skip.data)
    assert np.max(np.abs(y - conv)) / np.max(np.abs(conv)) < 1e-13
    for c, (a_bar, b_bar, cc, skip) in enumerate(bank_channels(bank)):
        for b in range(B):
            want = scan_recurrent(a_bar, b_bar, cc, x[b, :, c]) \
                + skip * x[b, :, c]
            err = np.max(np.abs(y[b, :, c] - want)) / np.max(np.abs(want))
            assert err < 1e-12, (L, c, err)


@pytest.mark.parametrize("B,L", SCAN_SHAPES)
def test_scan_grads_match_fd(B, L):
    rng = Rng(18)
    bank = scan_bank(2, 16, rng)
    x = Tensor(rng.normal((B, L, 2)), requires_grad=True, name="x")
    probe = Tensor(rng.normal((B, L, 2)))
    params = bank.params() + [x]

    def loss():
        return T.tsum(bank(x) * probe)

    gs = grad(loss(), params)
    fd = finite_diff(loss, params, eps=1e-6)
    for g, f, p in zip(gs, fd, params):
        err = np.linalg.norm(g - f) / max(np.linalg.norm(f), 1e-10)
        assert err < 1e-6, f"L={L} {p.name}: {err}"


def test_scan_input_shape_named():
    bank = make_bank(2, 3, Rng(19))
    with pytest.raises(ValueError, match=r"\(B, L, d\), got shape \(4, 2\)"):
        bank(Tensor(np.zeros((4, 2))))
    # an empty L axis leaves the scan no block to cut and the kernels no tap
    with pytest.raises(ValueError, match=r"at least one position, got shape "
                                         r"\(1, 0, 2\)"):
        bank(Tensor(np.zeros((1, 0, 2))))
    with pytest.raises(ValueError, match="kernel length must be >= 1"):
        bank.kernels(0)
    # an empty batch, and parameters whose shape is not the bank's: a (1,)
    # log_dt or D_skip would run every channel with one step
    with pytest.raises(ValueError, match=r"at least one sequence, got shape "
                                         r"\(0, 4, 2\)"):
        bank(Tensor(np.zeros((0, 4, 2))))
    x = Tensor(np.zeros((1, 4, 2)))
    # a 1-D C_out of d entries passes the channel check but has no N
    one, params = Tensor(np.zeros(1)), (bank.C_out, bank.log_dt,
                                        bank.D_skip)
    for at, name, bad, want in (
            (0, "C_out", Tensor(np.zeros(2)), "must be (d, N), got shape "
                                              "(2,)"),
            (1, "log_dt", one, "must have shape (2,), got (1,)"),
            (2, "D_skip", one, "must have shape (2,), got (1,)")):
        args = list(params)
        args[at] = bad
        with pytest.raises(ValueError, match=re.escape(f"{name} {want}")):
            ssm_scan(*args, x)


@pytest.mark.parametrize("B,L", [(32, 256), (8, 1024)])
def test_scan_float32_matches_float64(B, L):
    # the bulk products run in float32, the small matrices in float64:
    # the output and every gradient are the float64 ones up to float32
    # rounding (worst here 1.3e-6, on log_dt; the FFT path's worst on
    # three other draws was 1.1e-6)
    rng = Rng(20)
    d, n = 64, 16
    values = [rng.normal((d, n)),
              rng.uniform((d,), np.log(DT_MIN), np.log(DT_MAX)),
              rng.normal((d,)), rng.normal((B, L, d))]
    probe = rng.normal((B, L, d))
    got = {}
    for prec in ("float32", "float64"):
        with precision(prec):
            dt = T.get_dtype()
            c, ld, skip, x = [Tensor(v.astype(dt), requires_grad=True)
                              for v in values]
            y = ssm_scan(c, ld, skip, x)
            gs = grad(T.tsum(y * Tensor(probe.astype(dt))), [c, ld, skip, x])
            got[prec] = [y.data, *gs]
    names = ("y", "C_out", "log_dt", "D_skip", "x")
    for lo, hi, name in zip(got["float32"], got["float64"], names):
        assert lo.dtype == np.float32 and hi.dtype == np.float64, name
        err = np.max(np.abs(lo - hi)) / np.max(np.abs(hi))
        assert err < 5e-6, f"{name}: {err:.2e}"


def test_bank_grad_flows_to_input():
    rng = Rng(13)
    bank = SsmBank(d=2, n=3, rng=rng.child("bank"))
    x = Tensor(rng.normal((1, 5, 2)), requires_grad=True, name="x")
    probe = Rng(14).normal((1, 5, 2))
    loss = T.tsum(bank(x) * T.Tensor(probe))
    gs = grad(loss, [x])
    fd = finite_diff(
        lambda: T.tsum(bank(x) * T.Tensor(probe)), [x], eps=1e-6)
    err = np.linalg.norm(gs[0] - fd[0]) / np.linalg.norm(fd[0])
    assert err < 1e-6
