import numpy as np
import pytest

from conftest import pauli_on_site, projector0_on_site, pure_density_matrix, total_sz
from resetchannel import hamiltonians
from resetchannel.config import AahParams, PxpParams, XxParams, XxxParams
from resetchannel.hamiltonians import (
    ConstrainedBasis,
    build_aah,
    build_pxp,
    build_xx,
    build_xxx,
)
from resetchannel.spin_ops import (
    ChainLayout,
    ghz_state,
    neel_state,
    partial_trace,
    pauli_sum,
    product_state,
    site_signs,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_chain(ops):
    out = np.eye(1, dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


class TestPauli:
    def test_single_qubit_x(self):
        assert np.array_equal(pauli_on_site("x", 0, 1), SX)

    def test_z_on_msb_site(self):
        assert np.allclose(pauli_on_site("z", 0, 2), np.diag([1, 1, -1, -1]))

    def test_matches_kron_oracle(self):
        eye = np.eye(2)
        expected = kron_chain([eye, SY])
        assert np.allclose(pauli_on_site("y", 1, 2), expected)
        expected = kron_chain([eye, SX, eye, eye])
        assert np.allclose(pauli_on_site("x", 1, 4), expected)

    def test_unitary_hermitian_involution(self):
        for axis in "xyz":
            op = pauli_on_site(axis, 2, 3)
            assert np.allclose(op @ op, np.eye(8))
            assert np.allclose(op, op.conj().T)

    def test_distinct_sites_commute(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            s1, s2 = rng.choice(4, size=2, replace=False)
            a = pauli_on_site(rng.choice(list("xyz")), s1, 4)
            b = pauli_on_site(rng.choice(list("xyz")), s2, 4)
            assert np.linalg.norm(a @ b - b @ a) < 1e-12

    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            pauli_on_site("x", 3, 3)

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            pauli_on_site("w", 0, 2)


class TestPauliSum:
    @pytest.mark.parametrize("axes,sites", [
        ("", ()), ("y", (3,)), ("yy", (1, 2)), ("xyz", (0, 1, 3)), ("zxy", (0, 2, 3)),
    ])
    def test_string_matches_kron_oracle(self, axes, sites):
        ops = [np.eye(2)] * 4
        for axis, site in zip(axes, sites):
            ops[site] = {"x": SX, "y": SY, "z": SZ}[axis]
        assert np.array_equal(pauli_sum([(0.7, axes, sites)], 4), 0.7 * kron_chain(ops))

    def test_subspace_gives_restriction(self):
        even = [0b000, 0b011, 0b101, 0b110]
        terms = [(1.0, "xx", (0, 1)), (0.5, "y", (2,)), (0.3, "zz", (0, 2))]
        full = pauli_sum(terms, 3)
        assert np.array_equal(pauli_sum(terms, 3, even), full[np.ix_(even, even)])


def uncached_pauli_sum(terms, n_sites, states=None):
    """Oracle: the assembler as it was before its structure was cached, which
    derives every flip mask, sign and scatter position on each call."""
    states = np.arange(2 ** n_sites) if states is None else np.asarray(states)
    signs = site_signs(states, n_sites)
    dim = len(states)
    by_flip = {}
    for coeff, axes, sites in terms:
        flip, n_y, sign = 0, 0, np.ones(dim, dtype=int)
        for axis, site in zip(axes, sites, strict=True):
            if axis != "z":
                flip ^= 1 << (n_sites - 1 - site)
            if axis != "x":
                sign = sign * signs[site]
            n_y += axis == "y"
        acc = by_flip.setdefault(flip, np.zeros(dim, dtype=complex))
        acc += coeff * 1j ** n_y * sign
    h = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for flip, vals in by_flip.items():
        targets = states ^ flip
        rows = np.minimum(np.searchsorted(states, targets), dim - 1)
        inside = states[rows] == targets
        h[rows[inside], cols[inside]] = vals[inside]
    return h


class TestCachedPauliSum:
    def test_models_byte_identical_to_uncached_assembler(self, monkeypatch):
        compared = []

        def both(terms, n_sites, states=None):
            h = pauli_sum(terms, n_sites, states)
            expected = uncached_pauli_sum(terms, n_sites, states)
            assert h.tobytes() == expected.tobytes()
            compared.append(n_sites)
            return h

        monkeypatch.setattr(hamiltonians, "pauli_sum", both)
        rng = np.random.default_rng(11)
        for _ in range(3):  # the second and third draws hit the cache
            c = rng.uniform(-2.0, 2.0, size=5)
            for n in (3, 6, 8):
                build_aah(AahParams(j2=abs(c[0]), jzz=c[1], jz=c[2]), n)
                build_xxx(XxxParams(jzz=c[1], jz=c[2], jxxx=c[3]), n)
                build_xx(XxParams(jxx=c[0], jyy=c[3], jzz=c[1], jz=c[2], omega=c[4]), n)
                build_pxp(PxpParams(omega_rabi=abs(c[4])), n)
            # single-valued couplings drop terms, which changes the structure
            build_aah(AahParams(jzz=0.0, jz=0.0), 5)
            build_xx(XxParams(jxx=0.0, jyy=c[3]), 5)
        assert len(compared) == 3 * (3 * 7 + 4)  # a chain is two sums, pxp one

    def test_constrained_basis_byte_identical(self):
        rng = np.random.default_rng(12)
        states = ConstrainedBasis(7).states
        axes = ["x", "y", "z", "xx", "yy", "zz", "xyz"]
        for _ in range(2):
            terms = [(rng.normal(), a, tuple(range(m, m + len(a))))
                     for a in axes for m in range(7 - len(a) + 1)]
            assert (pauli_sum(terms, 7, states).tobytes()
                    == uncached_pauli_sum(terms, 7, states).tobytes())

    def test_returned_matrix_is_callers_own(self):
        terms = [(1.0, "xx", (0, 1)), (0.5, "yy", (1, 2)), (0.3, "z", (2,))]
        first = pauli_sum(terms, 3)
        expected = first.copy()
        first[:] = 7.0
        assert np.array_equal(pauli_sum(terms, 3), expected)
        h = build_aah(AahParams(jzz=0.3, jz=0.1), 4)
        expected = h.copy()
        h[0, 0] = 99.0
        assert np.array_equal(build_aah(AahParams(jzz=0.3, jz=0.1), 4), expected)

    @pytest.mark.parametrize("term, match", [
        ((1.0, "xw", (0, 1)), "axis"),
        ((1.0, "xx", (1, 3)), "out of range"),
        ((1.0, "xx", (0,)), "shorter|longer"),
    ])
    def test_bad_term_raises_every_time(self, term, match):
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                pauli_sum([(1.0, "z", (0,)), term], 3)


class TestProjector:
    def test_single_site(self):
        assert np.allclose(projector0_on_site(0, 1), np.diag([1, 0]))

    def test_idempotent_hermitian_half_rank(self):
        p = projector0_on_site(2, 4)
        assert np.allclose(p @ p, p)
        assert np.allclose(p, p.conj().T)
        assert np.linalg.matrix_rank(p) == 8

    def test_completeness_with_z_complement(self):
        p = projector0_on_site(1, 3)
        z = pauli_on_site("z", 1, 3)
        complement = (np.eye(8) - z) / 2
        assert np.allclose(p + complement, np.eye(8))


class TestStates:
    def test_product_state_is_basis_vector(self):
        psi = product_state("00")
        assert np.array_equal(psi, [1, 0, 0, 0])
        assert product_state("10")[2] == 1.0

    def test_ghz(self):
        psi = ghz_state(2)
        assert np.allclose(psi, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_neel(self):
        assert neel_state(3)[int("010", 2)] == 1.0

    def test_unit_norm(self):
        for psi in (product_state("0110"), ghz_state(3), neel_state(5)):
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_empty_bits_rejected(self):
        with pytest.raises(ValueError):
            product_state("")


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(1)
        rho_s = np.diag([0.25, 0.75]).astype(complex)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_b = a @ a.conj().T
        joint = np.kron(rho_s, rho_b)
        reduced = partial_trace(joint, [0], 2)
        assert np.allclose(reduced, rho_s * np.trace(rho_b))

    def test_bell_pair_reduces_to_mixed(self):
        rho = pure_density_matrix(ghz_state(2))
        assert np.allclose(partial_trace(rho, [0], 2), np.eye(2) / 2)

    def test_matches_index_summation_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        # keep sites {0,1}: rho'[ab, cd] = sum_k rho[abk, cdk]
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                for k in range(2):
                    expected[i, j] += rho[2 * i + k, 2 * j + k]
        got = partial_trace(rho, [0, 1], 3)
        assert np.allclose(got, expected)
        assert abs(np.trace(got) - np.trace(rho)) < 1e-12

    def test_trace_preserved_nonadjacent_keep(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        got = partial_trace(rho, [0, 2], 4)
        assert abs(np.trace(got) - 1.0) < 1e-12

    def test_shape_mismatch_rejected(self):
        for op in (np.eye(4), np.eye(8)[:4], np.ones(8)):
            with pytest.raises(ValueError, match=r"is not \(8, 8\) of 3 qubits"):
                partial_trace(op, [0], 3)


class TestTotalSz:
    def test_small_chains(self):
        assert np.allclose(total_sz(1), np.diag([1, -1]))
        assert np.allclose(total_sz(2), np.diag([2, 0, 0, -2]))

    def test_eigenvalue_range_and_parity(self):
        vals = np.real(np.diag(total_sz(5)))
        assert vals.max() == 5 and vals.min() == -5
        assert np.all((vals - 5) % 2 == 0)


class TestLayout:
    def test_dimensions(self):
        layout = ChainLayout(3, 4)
        assert layout.n_h == 7
        assert (layout.dim_s, layout.dim_b, layout.dim_joint) == (8, 16, 128)
        for n in range(1, 11):
            assert np.array_equal(layout.states(n), np.arange(2 ** n))

    def test_constrained_dimensions_are_fibonacci(self):
        layout = ChainLayout(5, 5, constrained=True)
        assert (layout.dim_s, layout.dim_b, layout.dim_joint) == (13, 13, 144)
        assert (len(layout.states(5)), len(layout.states(10))) == (13, 144)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_states_equal_the_comprehension(self, constrained):
        # the rule applied one integer at a time is the oracle for the mask
        for n in range(1, 13):
            want = [b for b in range(1 << n) if not constrained or (b & (b >> 1)) == 0]
            assert ChainLayout(1, 1, constrained).states(n).tolist() == want
            if constrained:
                basis = ConstrainedBasis(n).states
                assert basis == want and all(type(b) is int for b in basis)

    def test_invalid_layout(self):
        with pytest.raises(ValueError):
            ChainLayout(0, 2)
