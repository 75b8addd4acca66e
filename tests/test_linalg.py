"""Tests of the product-space action in ``bellchsh.chsh``: ``Ket``,
``FactoredOperator`` and ``square_matrix``, the check their matrices
share.  The file keeps its name, that of the module which held this code
before ``chsh`` did, so its test ids stay stable."""

import math
import re

import numpy as np
import pytest

from bellchsh import (
    ChshQuadruple,
    DomainError,
    FactoredOperator,
    Ket,
    ShapeError,
    phase_flip,
)
from helpers import dense, expectation, random_state, random_unitary


def product(a, b, coef=1.0):
    """The single-term factored operator coef * a (x) b."""
    return FactoredOperator(((coef, a, b),))


class TestConstruction:
    def test_ket_must_be_matrix(self):
        # a ket is its (dim_A, dim_B) amplitude matrix: a flat vector is refused
        for amplitudes in (np.array([0.6, 0.8]), np.ones((2, 2, 1)), np.zeros((0, 2))):
            with pytest.raises(ShapeError, match="ket amplitudes must be a non-empty matrix"):
                Ket(amplitudes)
        assert Ket(np.ones((2, 3))).amplitudes.shape == (2, 3)

    def test_operator_must_be_square(self):
        # every one-factor matrix: a quadruple operator or a Kronecker factor
        eye = np.eye(2)
        with pytest.raises(ShapeError):
            ChshQuadruple(a1=np.ones((2, 3)), a2=eye, b1=eye, b2=eye)
        with pytest.raises(ShapeError):
            FactoredOperator(((1.0, eye, np.ones((2, 3))),))
        # a tall factor is as far from square as a wide one
        with pytest.raises(ShapeError, match=re.escape("square matrix, got shape (3, 2)")):
            FactoredOperator(((1.0, np.ones((3, 2)), eye),))

    @pytest.mark.parametrize("build,value", [
        (Ket, [[0.6, 0.8]]),
        (Ket, ((1.0, 0.0),)),
        (lambda x: ChshQuadruple(a1=x, a2=np.eye(2), b1=np.eye(2), b2=np.eye(2)),
         [[1, 0], [0, 1]]),
        (lambda x: FactoredOperator(((1.0, x, x),)), [[1]]),
    ])
    def test_list_refused_naming_it(self, build, value):
        # only an ndarray is read: pass np.array(value)
        with pytest.raises(ShapeError, match=re.escape(f"complex numbers, got {value!r}")):
            build(value)

    def test_ndarray_subclass_read_as_plain_array(self):
        # an np.matrix ket or factor is stored as an ndarray, so apply's
        # image is a plain ndarray too, never an np.matrix
        with pytest.warns(PendingDeprecationWarning):
            eye = np.matrix(np.eye(2))
            psi = Ket(np.matrix([[0.6, 0.0], [0.0, 0.8]]))
        image = product(eye, eye).apply(psi)
        assert type(psi.amplitudes) is type(image.amplitudes) is np.ndarray
        assert np.array_equal(image.amplitudes, psi.amplitudes)

    def test_phase_flip_rejects_non_hermitian(self):
        # a level paired with itself ends up with e^{-i phase} on the diagonal
        with pytest.raises(DomainError, match="not hermitian"):
            phase_flip(2, np.array([(0, 0)]), 0.5)
        with pytest.raises(DomainError, match="not hermitian"):
            phase_flip(2, np.array([(0, 1)]), float("nan"))

    def test_phase_flip_rejects_shared_level_and_infinite_phase(self):
        with pytest.raises(DomainError, match="not hermitian"):
            phase_flip(3, np.array([(0, 1), (1, 2)]), 0.5)  # level 1 in both pairs
        with pytest.raises(DomainError, match="not hermitian"):
            phase_flip(2, np.array([(0, 1)]), float("inf"))

    def test_phase_flip_matches_reference_construction(self):
        # the builder that checked the built matrix's hermiticity, bit for bit
        def reference(dim, pairs, phase):
            up = complex(np.exp(1j * phase))
            src, dst = np.array(pairs).T
            m = np.eye(dim, dtype=complex)
            m[src, src] = m[dst, dst] = 0.0
            m[dst, src] = up
            m[src, dst] = up.conjugate()
            assert np.abs(m - m.conj().T).max() <= 1e-12
            return m

        rng = np.random.default_rng(61)
        phases = [0.0, math.pi, -math.pi, 1e-300, *rng.uniform(-7.0, 7.0, 6)]
        cases = [(2, np.array([(0, 1)])), (3, np.array([(2, 1)])),
                 (3, np.array([(0, 1)]))]  # spin-1/2, spin-1 A, B
        cases += [(n, np.arange(n).reshape(-1, 2)) for n in (4, 8, 40)]  # Fock
        for dim, pairs in cases:
            for phase in phases:
                flip = phase_flip(dim, pairs, phase)
                assert flip.tobytes() == reference(dim, pairs, phase).tobytes()

    def test_values_are_immutable(self):
        k = Ket(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            k.amplitudes[0, 0] = 2.0
        source = np.eye(2)
        q = ChshQuadruple(a1=source, a2=source, b1=source, b2=source)
        source[0, 0] = 2.0  # the quadruple holds its own copy
        assert q.a1[0, 0] == 1.0
        with pytest.raises(ValueError):
            q.a1[0, 0] = 2.0
        with pytest.raises(ValueError):
            phase_flip(2, np.array([(0, 1)]), 0.5)[0, 0] = 2.0


class TestTensor:
    """Tensor-product structure of factored two-party operators."""

    def test_identity_times_identity(self):
        eye2 = np.eye(2)
        assert np.array_equal(dense(product(eye2, eye2)), np.eye(4))
        psi = random_state(np.random.default_rng(5), 2, 2)
        assert np.array_equal(product(eye2, eye2).apply(psi).amplitudes,
                              psi.amplitudes)

    def test_mixed_product_identity(self):
        # (a (x) I)(I (x) b) = a (x) b, applied to a generic state
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        eye = np.eye(3)
        psi = random_state(rng, 3, 3)
        left = product(a, eye).apply(product(eye, b).apply(psi)).amplitudes
        assert np.abs(left - product(a, b).apply(psi).amplitudes).max() <= 1e-13

    def test_embedded_sides_commute(self):
        # a spin-1 flip on the A factor against a flip on the B factor
        from bellchsh import SPIN_ONE, AngleSet, spin_quadruple

        q = spin_quadruple(SPIN_ONE, AngleSet(0.37, 0.0, -1.2, 0.0))
        a1 = product(q.a1, np.eye(3))
        b1 = product(np.eye(3), q.b1)
        psi = random_state(np.random.default_rng(9), 3, 3)
        ab = a1.apply(b1.apply(psi)).amplitudes
        ba = b1.apply(a1.apply(psi)).amplitudes
        assert np.abs(ab - ba).max() <= 1e-13

    def test_associativity_up_to_relabeling(self):
        # (a (x) b) (x) c and a (x) (b (x) c) split the same row-major
        # index differently, as (6, 2) and (2, 6) amplitude matrices;
        # both must act identically
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        c = rng.normal(size=(2, 2))
        psi = random_state(rng, 6, 2)
        left = product(np.kron(a, b), c).apply(psi).amplitudes
        right = product(a, np.kron(b, c)).apply(Ket(psi.amplitudes.reshape(2, 6))).amplitudes
        assert np.abs(left.reshape(2, 6) - right).max() <= 1e-13

    def test_action_factorizes_on_product_states(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        # the product state u (x) v is the amplitude matrix u v^T
        u, v = random_state(rng, 3, 1).amplitudes, random_state(rng, 2, 1).amplitudes
        left = product(a, b).apply(Ket(u @ v.T)).amplitudes
        right = (a @ u) @ (b @ v).T
        assert np.abs(left - right).max() <= 1e-13

    def test_matches_dense_kronecker_sum(self):
        rng = np.random.default_rng(15)
        terms = tuple((complex(rng.normal(), rng.normal()),
                       rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
                       rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
                      for _ in range(3))
        factored = FactoredOperator(terms)
        psi = random_state(rng, 3, 4)
        via_dense = dense(factored) @ psi.amplitudes.ravel()
        assert np.abs(factored.apply(psi).amplitudes.ravel() - via_dense).max() <= 1e-13

    def test_no_capacity_limit_past_old_dense_budget(self):
        # 150 x 150 factors: the product dimension 22500 is past the old
        # 16384 budget for dense full-space matrices; the factors are small
        rng = np.random.default_rng(17)
        a = rng.normal(size=(150, 150))
        b = rng.normal(size=(150, 150))
        u, v = random_state(rng, 150, 1).amplitudes, random_state(rng, 150, 1).amplitudes
        image = product(a, b).apply(Ket(u @ v.T))
        expected = (a @ u) @ (b @ v).T
        assert np.abs(image.amplitudes - expected).max() <= 1e-12

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            FactoredOperator(())
        with pytest.raises(ShapeError):
            FactoredOperator(((1.0, np.eye(2), np.eye(3)), (1.0, np.eye(3), np.eye(2))))
        with pytest.raises(ShapeError, match=re.escape("dims (2, 3) vs ket shape (3, 2)")):
            product(np.eye(2), np.eye(3)).apply(Ket(np.ones((3, 2))))
        # the A side matches, so only the B half of the shape check refuses it
        with pytest.raises(ShapeError, match=re.escape("dims (2, 3) vs ket shape (2, 2)")):
            product(np.eye(2), np.eye(3)).apply(Ket(np.ones((2, 2))))

    @pytest.mark.parametrize("terms", [
        ((2.0, None, None),),
        ((1.0, np.eye(2), None),),
        ((1.0, None, np.eye(3)), (0.5, None, None)),
        ((1.0, np.eye(2), np.eye(3)), (1.0, None, np.eye(2))),
        ((1.0, np.eye(2), None), (1.0, np.eye(3), np.eye(2))),
    ], ids=["scalar-alone", "no-right-ndarray", "no-left-ndarray", "mixed-right",
            "mixed-left"])
    def test_identity_side_needs_one_ndarray_dim(self, terms):
        # a None side takes its dim from the ndarray factors on that side
        with pytest.raises(ShapeError, match="side needs ndarray factors of one dim"):
            FactoredOperator(terms)

    @pytest.mark.parametrize("coef", [math.nan, math.inf, complex(1, math.inf), 10**400,
                                      "2", b"2", np.str_("2"), np.array("2"), np.array([2.0])])
    def test_non_finite_coefficient_refused(self, coef):
        # text and an array that is not 0-d read as NaN
        with pytest.raises(ShapeError, match="coefficient, left, right"):
            product(np.eye(2), np.eye(2), coef)

    def test_0d_coefficient_read_as_its_entry(self):
        psi = Ket(np.array([[0.6, 0.0], [0.0, 0.8]]))
        for coef in (np.array(2.0), np.array(2.0 + 0j), np.complex64(2.0)):
            image = product(np.eye(2), np.eye(2), coef).apply(psi)
            assert image.amplitudes.tobytes() == (2.0 * psi.amplitudes).tobytes()


class TestIdentityFactor:
    """A ``None`` factor is the identity on its side, never multiplied by."""

    @staticmethod
    def random_terms(rng, dim_a, dim_b):
        """Four terms over random complex factors: one with a ``None``
        left, one with a ``None`` right, one with both, and one with
        neither."""
        def square(dim):
            return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

        coefs = rng.normal(size=4) + 1j * rng.normal(size=4)
        return ((coefs[0], None, square(dim_b)), (coefs[1], square(dim_a), None),
                (coefs[2], None, None), (coefs[3], square(dim_a), square(dim_b)))

    @pytest.mark.parametrize("dim_a,dim_b", [(1, 1), (2, 3), (4, 4), (7, 2), (40, 40)])
    def test_matches_explicit_identity(self, dim_a, dim_b):
        rng = np.random.default_rng(23 + dim_a * dim_b)
        eyes = (np.eye(dim_a), np.eye(dim_b))
        for _ in range(10):
            terms = self.random_terms(rng, dim_a, dim_b)
            implicit = FactoredOperator(terms)
            explicit = FactoredOperator(tuple(
                (c, eyes[0] if left is None else left, eyes[1] if right is None else right)
                for c, left, right in terms))
            assert implicit.dims == explicit.dims == (dim_a, dim_b)
            psi = random_state(rng, dim_a, dim_b)
            got, want = implicit.apply(psi), explicit.apply(psi)
            assert np.array_equal(np.abs(got.amplitudes), np.abs(want.amplitudes))
            assert got.norm.hex() == want.norm.hex()

    def test_kept_as_none(self):
        a = np.arange(4.0).reshape(2, 2)
        op = FactoredOperator(((1.0, a, None), (2.0, None, None), (3.0, None, np.eye(3))))
        assert [(left is None, right is None) for _, left, right in op.terms] == [
            (False, True), (True, True), (True, False)]
        assert op.dims == (2, 3)
        psi = random_state(np.random.default_rng(29), 2, 3)
        assert np.array_equal(dense(op), np.kron(a, np.eye(3)) + 5.0 * np.eye(6))
        via_dense = dense(op) @ psi.amplitudes.ravel()
        assert np.abs(op.apply(psi).amplitudes.ravel() - via_dense).max() <= 1e-13


class TestExpectation:
    def test_basis_state_identity(self):
        e0 = Ket(np.array([[1.0, 0.0, 0.0]]))
        assert expectation(e0, np.eye(3)) == 1.0 + 0.0j

    def test_spin_one_singlet_energy(self):
        # independent 9x9 construction: S_A . S_B from the standard
        # spin-1 matrices, applied to the singlet amplitude pattern
        sz = np.diag([1.0, 0.0, -1.0])
        sp = np.zeros((3, 3))
        sp[0, 1] = sp[1, 2] = np.sqrt(2.0)
        sx, sy = (sp + sp.T) / 2, (sp - sp.T) / 2j
        h = sum(np.kron(s, s) for s in (sx, sy, sz))
        amp = np.zeros((3, 3), dtype=complex)
        amp[0, 2], amp[1, 1], amp[2, 0] = 1.0, -1.0, 1.0
        psi = Ket(amp / np.sqrt(3.0))
        value = expectation(psi, h)
        assert abs(value - (-2.0)) <= 1e-12

    def test_squeezed_pair_correlator_value(self):
        # <eta|A1 B1|eta> = 2 eta/(1+eta^2) cos(a1+b1) = 0.8 at eta=0.5,
        # zero phases (cutoff-independent for even cutoffs)
        from bellchsh import AngleSet, FockSpace, fock_quadruple, squeezed_state
        from helpers import full_quadruple

        space = FockSpace(8)
        psi = squeezed_state(0.5, space).ket
        full = full_quadruple(fock_quadruple(space, AngleSet(0.0, 0.0, 0.0, 0.0)))
        assert abs(expectation(psi, full["a1"] @ full["b1"]) - 0.8) <= 1e-12

    def test_requires_matching_dims(self):
        with pytest.raises(ShapeError):
            expectation(Ket(np.array([[1.0, 0.0]])), np.eye(3))

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError):
            expectation(Ket(np.array([[2.0, 0.0]])), np.eye(2))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dim = int(rng.integers(2, 8))
            psi = random_state(rng, dim, 1)
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            lhs = np.conj(expectation(psi, m))
            rhs = expectation(psi, m.conj().T)
            assert abs(lhs - rhs) <= 1e-12

    def test_unitaries_preserve_norm(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            dim = int(rng.integers(2, 10))
            u = random_unitary(rng, dim)
            assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-12
            psi = random_state(rng, dim, 1)
            assert abs(np.linalg.norm(u @ psi.amplitudes) - psi.norm) <= 1e-12
