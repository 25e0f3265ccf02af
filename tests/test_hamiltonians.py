import numpy as np
import pytest

from conftest import projector0_on_site, total_sz
from resetchannel.hamiltonians import (
    AahParams,
    ConstrainedBasis,
    PxpParams,
    XxParams,
    XxxParams,
    build_aah,
    build_pxp,
    build_xx,
    build_xxx,
    hermitian_eigensystem,
)
from resetchannel.channel import Propagator, joint_index_table
from resetchannel.spin_ops import ChainLayout

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)


def comm_norm(a, b):
    return np.linalg.norm(a @ b - b @ a)


# Kronecker-product oracle: every term is embedded as a dense 2^n matrix
# and accumulated in the same order as the bitwise assembler.

def kron_site(op2, site, n):
    return np.kron(np.kron(np.eye(2 ** site), op2), np.eye(2 ** (n - site - 1)))


def kron_model(n, jxx, jyy, jzz, jz, omega, jxxx=0.0):
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for m in range(n - 1):
        for coeff, op2 in ((jxx, SX), (jyy, SY), (jzz, SZ)):
            if coeff != 0.0:
                h += coeff * (kron_site(op2, m, n) @ kron_site(op2, m + 1, n))
    if jxxx != 0.0:
        xs = [kron_site(SX, m, n) for m in range(n)]
        for m in range(1, n - 1):
            h += jxxx * (xs[m - 1] @ xs[m] @ xs[m + 1])
    diag = np.zeros(2 ** n)
    for m in range(n):
        diag += jz * np.cos(omega * m) * np.real(np.diag(kron_site(SZ, m, n)))
    return h + np.diag(diag)


def kron_pxp(omega_rabi, n):
    """Projector-dressed sum_m P0_{m-1} X_m P0_{m+1} on the full qubit space."""
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for m in range(n):
        term = kron_site(SX, m, n)
        if m > 0:
            term = kron_site(P0, m - 1, n) @ term
        if m < n - 1:
            term = term @ kron_site(P0, m + 1, n)
        h += omega_rabi / 2 * term
    return h


class TestKronOracle:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_aah(self, n):
        p = AahParams(j2=0.9, jzz=0.3, jz=0.7)
        expected = kron_model(n, p.j2, p.j2, p.jzz, p.jz, p.omega)
        assert np.array_equal(build_aah(p, n), expected)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_xxx(self, n):
        p = XxxParams(jzz=0.1, jz=0.1, jxxx=2.0)
        expected = kron_model(n, 1.0, 1.0, 0.1, 0.1, p.omega, jxxx=2.0)
        assert np.array_equal(build_xxx(p, n), expected)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_xx(self, n):
        p = XxParams(jxx=0.8, jyy=1.1, jzz=0.3, jz=0.5)
        expected = kron_model(n, p.jxx, p.jyy, p.jzz, p.jz, p.omega)
        assert np.array_equal(build_xx(p, n), expected)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_pxp_is_restriction(self, n):
        states = ConstrainedBasis(n).states
        expected = kron_pxp(1.3, n)[np.ix_(states, states)]
        assert np.array_equal(build_pxp(PxpParams(omega_rabi=1.3), n), expected)


class TestAah:
    def test_two_site_hopping_block(self):
        h = build_aah(AahParams(j2=1.0), 2)
        expected = np.zeros((4, 4))
        expected[1, 2] = expected[2, 1] = 2.0  # XX + YY on |01>,|10>
        assert np.allclose(h, expected)

    def test_onsite_coefficient_at_first_site(self):
        h = build_aah(AahParams(jz=1.0), 2)
        # site-0 contribution is jz*cos(0): average over the site-1 value
        assert abs((h[0, 0] + h[1, 1]) / 2 - 1.0) < 1e-12

    def test_hermitian_and_real(self):
        h = build_aah(AahParams(jzz=0.3, jz=0.7), 5)
        assert np.linalg.norm(h - h.conj().T) < 1e-12 * np.linalg.norm(h)
        assert np.linalg.norm(h.imag) < 1e-12

    def test_conserves_total_magnetization(self):
        h = build_aah(AahParams(jzz=0.1, jz=0.1), 6)
        assert comm_norm(h, total_sz(6)) < 1e-12

    def test_too_short_chain(self):
        with pytest.raises(ValueError):
            build_aah(AahParams(), 1)


class TestXxx:
    def test_reduces_to_aah(self):
        params = XxxParams(jzz=0.2, jz=0.4, jxxx=0.0)
        assert np.array_equal(build_xxx(params, 4), build_aah(params, 4))

    def test_three_site_term_matches_kron_oracle(self):
        h = build_xxx(XxxParams(j2=1e-30, jxxx=1.0), 3)
        expected = np.kron(np.kron(SX, SX), SX)
        assert np.allclose(h, expected, atol=1e-12)

    def test_breaks_magnetization_conservation(self):
        h = build_xxx(XxxParams(jzz=0.1, jz=0.1, jxxx=2.0), 6)
        assert comm_norm(h, total_sz(6)) > 0.1


class TestXx:
    def test_symmetric_point_equals_aah(self):
        h_xx = build_xx(XxParams(jxx=1.0, jyy=1.0, jzz=0.3, jz=0.2), 4)
        h_aah = build_aah(AahParams(jzz=0.3, jz=0.2), 4)
        assert np.array_equal(h_xx, h_aah)

    def test_symmetric_point_conserves_sz(self):
        h = build_xx(XxParams(jxx=0.7, jyy=0.7, jzz=0.1, jz=0.1), 4)
        assert comm_norm(h, total_sz(4)) < 1e-12

    def test_anisotropy_breaks_sz(self):
        h = build_xx(XxParams(jxx=0.8, jyy=1.0, jzz=0.1, jz=0.1), 4)
        assert comm_norm(h, total_sz(4)) > 0.1

    def test_two_site_matrix_vs_kron_oracle(self):
        p = XxParams(jxx=0.8, jyy=1.0, jzz=0.3, jz=0.5)
        expected = (0.8 * np.kron(SX, SX) + 1.0 * np.kron(SY, SY) + 0.3 * np.kron(SZ, SZ)
                    + 0.5 * np.cos(0) * np.kron(SZ, np.eye(2))
                    + 0.5 * np.cos(p.omega) * np.kron(np.eye(2), SZ))
        assert np.allclose(build_xx(p, 2), expected)


class TestConstrainedBasis:
    # F(n + 2) for n = 1 ... 10
    @pytest.mark.parametrize("n,dim", zip(range(1, 11), [2, 3, 5, 8, 13, 21, 34, 55, 89, 144]))
    def test_fibonacci_dimension(self, n, dim):
        assert ConstrainedBasis(n).dim == len(ChainLayout(1, 1, True).states(n)) == dim

    def test_states_sorted_and_blockaded(self):
        for n in range(1, 11):
            basis, block = ConstrainedBasis(n).states, ChainLayout(1, 1, True).states(n)
            assert block.tolist() == basis
            for states in (basis, block):
                assert np.all(np.diff(states) > 0)
                assert all((b & (b >> 1)) == 0 for b in states)

    def test_joint_index_table_respects_boundary(self):
        for layout in (ChainLayout(2, 2, True), ChainLayout(3, 4, True), ChainLayout(5, 5, True),
                       ChainLayout(2, 3), ChainLayout(4, 4)):
            table = joint_index_table(layout)
            assert table.shape == (layout.dim_b, layout.dim_s)
            # every joint state exactly once
            assert np.array_equal(np.sort(table[table >= 0]), np.arange(layout.dim_joint))
            if layout.constrained:
                sys_states = np.array(ConstrainedBasis(layout.n_s).states)
                bath_states = np.array(ConstrainedBasis(layout.n_b).states)
                joint_states = np.array(ConstrainedBasis(layout.n_h).states)
            else:
                sys_states, bath_states = np.arange(layout.dim_s), np.arange(layout.dim_b)
                joint_states = np.arange(layout.dim_joint)
            # -1 exactly where system ...1 meets bath 1... at the cut
            clash = (bath_states[:, None] >> (layout.n_b - 1)) & sys_states[None, :] & 1
            assert np.array_equal(table < 0, clash.astype(bool) & layout.constrained)
            b, s = np.nonzero(table >= 0)
            assert np.array_equal(joint_states[table[b, s]],
                                  (sys_states[s] << layout.n_b) | bath_states[b])
        table = joint_index_table(ChainLayout(2, 2, True))
        pair = ConstrainedBasis(2).states
        assert table[pair.index(0b10), pair.index(0b01)] == -1
        assert (table[pair.index(0b10), pair.index(0b10)]
                == ConstrainedBasis(4).states.index(0b1010))

    def test_joint_index_table_is_shared_and_read_only(self):
        table = joint_index_table(ChainLayout(3, 4, True))
        assert joint_index_table(ChainLayout(3, 4, True)) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0


class TestPxp:
    def test_two_site_constrained_hand_enumeration(self):
        h = build_pxp(PxpParams(omega_rabi=2.0), 2)
        # basis order {00, 01, 10}; flips couple 00<->01 and 00<->10
        expected = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=complex)
        assert np.allclose(h, expected)

    def test_full_basis_commutes_with_blockade_projectors(self):
        n = 4
        h = kron_pxp(1.0, n)
        for m in range(n - 1):
            blockade = projector0_on_site(m, n) + (
                np.eye(2 ** n) - projector0_on_site(m, n)
            ) @ projector0_on_site(m + 1, n)
            # P0_m + P1_m P0_{m+1} projects onto no-double-excitation at the bond
            assert comm_norm(h, blockade) < 1e-12

    def test_constrained_equals_projected_full(self):
        n = 5
        basis = ConstrainedBasis(n)
        h_full = kron_pxp(1.3, n)
        h_proj = h_full[np.ix_(basis.states, basis.states)]
        assert np.allclose(build_pxp(PxpParams(omega_rabi=1.3), n), h_proj)

    def test_full_basis_preserves_constrained_subspace(self):
        n = 4
        basis = ConstrainedBasis(n)
        h_full = kron_pxp(1.0, n)
        outside = [b for b in range(2 ** n) if b not in basis.states]
        assert np.allclose(h_full[np.ix_(outside, basis.states)], 0.0)


class TestEigensystem:
    def test_diagonal_input(self):
        vals, vecs = hermitian_eigensystem(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(vals, [1, 2, 3])
        assert np.allclose(np.abs(vecs), np.eye(3))

    def test_pauli_x(self):
        vals, _ = hermitian_eigensystem(SX)
        assert np.allclose(vals, [-1, 1])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        h = (a + a.conj().T) / 2
        vals, vecs = hermitian_eigensystem(h)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(recon - h) < 1e-9 * np.linalg.norm(h)
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(32)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("h", [np.ones(4), np.ones((2, 3))], ids=["vector", "2x3"])
    def test_rejects_non_square(self, h):
        with pytest.raises(ValueError, match="must be square"):
            hermitian_eigensystem(h)

    @pytest.mark.parametrize("h", [
        np.array([[0.0, 1j], [1j, 0.0]]),  # symmetric, so only the complex check sees it
        np.array([[0.0, 1.0], [0.0, 0.0]]),  # a real dtype
        np.array([[0.0, complex(0, np.nan)], [complex(0, -np.nan), 0.0]]),
    ], ids=["complex-symmetric", "real-dtype", "nan-imaginary"])
    def test_rejects_non_hermitian_on_either_check(self, h):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigensystem(h)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_rejects_nan(self, real):
        h = np.eye(4, dtype=complex)
        h[0, 1] = h[1, 0] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigensystem(h.real if real else h)


def solve_shapes(monkeypatch, h):
    """The eigensystem of ``h``, solved in the arithmetic of its dtype, and
    the shapes of the arrays that ``np.linalg.eigh`` was called on to get
    it."""
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    result = hermitian_eigensystem(h)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return result, shapes


# the fig3 and fig8 chains at 7 sites, fig3's at 8, and fig7's ergodic case.
# At the localized field jz = 5 the two solves' U at t = 100 differ by up to
# 3e-12: both round the phases E t, |E| up to 26; against a 40-digit solve of
# four columns the sector solve was off by 4.7e-13 and the full one by 8.3e-13
SECTOR_CASES = {
    "aah-7": lambda: build_aah(AahParams(jzz=0.3, jz=0.1), 7),
    "aah-7-fig8": lambda: build_aah(AahParams(jzz=0.1, jz=0.1), 7),
    "aah-8": lambda: build_aah(AahParams(jzz=0.3, jz=0.1), 8),
    "xxx-jxxx-0": lambda: build_xxx(XxxParams(jzz=0.1, jz=0.1, jxxx=0.0), 8),
}


class TestSectorEigensystem:
    """A real solve of an H that conserves total S_z exactly goes sector by
    sector; anything else takes one full solve."""

    @pytest.mark.parametrize("case", SECTOR_CASES)
    def test_matches_full_real_solve(self, case, monkeypatch):
        h = SECTOR_CASES[case]().real
        (vals, vecs), shapes = solve_shapes(monkeypatch, h)
        assert shapes and all(max(shape) < len(h) for shape in shapes)  # sector path
        full_vals, full_vecs = np.linalg.eigh(h)
        assert vecs.dtype == float and vecs.shape == (len(h), len(h))
        assert np.all(np.diff(vals) >= 0)
        assert np.max(np.abs(vals - full_vals)) < 1e-12
        assert np.linalg.norm(vecs.T @ vecs - np.eye(len(h))) < 1e-12
        cols = np.arange(len(h))
        u = Propagator(vals, vecs, 100.0).columns(cols)
        u_full = Propagator(full_vals, full_vecs, 100.0).columns(cols)
        assert np.max(np.abs(u - u_full)) < 1e-12

    def test_dtype_decides_the_solve(self, monkeypatch):
        # the builders return a complex H; its real part takes the sector
        # solve, the complex array one complex eigh, and the two agree
        h = SECTOR_CASES["aah-7"]()
        assert h.dtype == complex and not np.any(h.imag)
        (vals, vecs), shapes = solve_shapes(monkeypatch, h.real)
        assert vecs.dtype == float
        assert shapes and all(max(shape) < len(h) for shape in shapes)
        (c_vals, c_vecs), c_shapes = solve_shapes(monkeypatch, h)
        assert c_vecs.dtype == complex and c_shapes == [h.shape]
        assert np.max(np.abs(vals - c_vals)) < 1e-12
        cols = np.arange(len(h))
        u = Propagator(vals, vecs, 1.0).columns(cols)
        assert np.max(np.abs(u - Propagator(c_vals, c_vecs, 1.0).columns(cols))) < 1e-12

    def test_equal_energies_keep_sector_order(self, monkeypatch):
        # 3 sites; each energy is unique within its sector, and E = 0 sits on
        # |100> (one 1 bit) and |011> (two), so count order and index order
        # disagree there
        energies = [1.0, 2.0, 1.0, 0.0, 0.0, 1.0, 2.0, 1.0]
        h = np.diag(energies)
        (vals, vecs), shapes = solve_shapes(monkeypatch, h)
        assert shapes and all(max(shape) < len(h) for shape in shapes)  # sector path
        assert vals.tolist() == sorted(energies)
        # among equal energies, the columns go in ascending 1-bit count
        assert np.argmax(np.abs(vecs), axis=0).tolist() == [4, 3, 0, 2, 5, 7, 1, 6]

    @pytest.mark.parametrize("case", ["xxx-jxxx-2", "pxp", "complex"])
    def test_other_hamiltonians_take_one_full_solve(self, case, monkeypatch):
        if case == "xxx-jxxx-2":
            h = build_xxx(XxxParams(jzz=0.1, jz=0.1, jxxx=2.0), 8).real
        elif case == "pxp":
            h = build_pxp(PxpParams(), 10).real
        else:
            rng = np.random.default_rng(3)
            a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
            h = (a + a.conj().T) / 2
        (vals, vecs), shapes = solve_shapes(monkeypatch, h)
        assert shapes == [(len(h), len(h))]
        recon = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(recon - h) < 1e-12 * np.linalg.norm(h)

    def test_blockade_hamiltonian_of_qubit_dimension_is_exact(self):
        # 4 blockade sites span F(6) = 8 states, the dimension of 3 qubits,
        # so the real path tries the sector split on a basis that is not a
        # qubit basis; whichever solve answers, the eigensystem is exact
        h = build_pxp(PxpParams(), 4).real
        assert len(h) == 8
        vals, vecs = hermitian_eigensystem(h)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(recon - h) <= 1e-12 * np.linalg.norm(h)
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(8)) < 1e-12

    def test_planted_off_sector_entry_forces_full_solve(self, monkeypatch):
        # no tolerance decides the path: one entry of 1e-300 between two
        # sectors is enough to leave it
        h = build_aah(AahParams(jzz=0.3, jz=0.1), 7).real
        i, j = 0, 3  # |0000000> (no 1 bits) and |0000011> (two)
        assert h[i, j] == 0.0
        h[i, j] = h[j, i] = 1e-300
        (vals, vecs), shapes = solve_shapes(monkeypatch, h)
        assert shapes == [(len(h), len(h))]
        assert np.linalg.norm(vecs.T @ vecs - np.eye(len(h))) < 1e-12


class TestParamValidation:
    def test_j2_must_be_positive(self):
        with pytest.raises(ValueError):
            AahParams(j2=0.0)

    def test_rabi_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            PxpParams(omega_rabi=-1.0)

    @pytest.mark.parametrize("build, params, n_sites, message", [
        (build_aah, AahParams(), 1, "chain needs at least 2 sites"),
        (build_xx, XxParams(), 1, "chain needs at least 2 sites"),
        (build_xxx, XxxParams(), 2, "three-site coupling needs at least 3 sites"),
        (build_pxp, PxpParams(), 1, "chain needs at least 2 sites"),
    ], ids=["aah", "xx", "xxx", "pxp"])
    def test_too_short_chain_names_its_minimum(self, build, params, n_sites, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(params, n_sites)
