"""The in-process workloads of the bellchsh benchmark: fock-oracle and
field-smearing.

Each calls the public functions of ``fock``, ``chsh``, ``linalg`` and
``kleingordon`` directly, in the one worker process, with warm caches.
Every op checks its output against the library's own bound; a miss or
a raise counts as a failed op.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from bellchsh import chsh, fock, kleingordon
from bellchsh.chsh import AngleSet


def nbytes(obj) -> int:
    """Bytes held in numpy arrays inside a (nested) dataclass result."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(x) for x in obj)
    return 0


def random_angles(rng) -> AngleSet:
    return AngleSet(*(float(a) for a in rng.uniform(-math.pi, math.pi, 4)))


# ---------------------------------------------------------------------------
# fock-oracle


class FockOracle:
    """Squeezed oscillator at the CLI default cutoff, with warm caches.

    Chosen because the dense ``cutoff**4`` operators spend their time and
    memory here: the matrix CHSH oracle, the quadruple axioms and the
    Bogoliubov/Hamiltonian residue certificates.
    """

    #: 190 points keep one round under 200 ops, so the tail is p90 (p95
    #: would need 200 ops for ten beyond it and rides on rare stalls).
    SIZES = {
        "full": {"cutoff": fock.DEFAULT_CUTOFF, "points": 190, "residues": 3,
                 "min_rounds": 1},
        "tiny": {"cutoff": 8, "points": 20, "residues": 2, "min_rounds": 1},
    }

    def __init__(self, seed: int, size: str):
        cfg = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.space = fock.FockSpace(cfg["cutoff"])
        self.min_rounds = cfg["min_rounds"]
        self.points = [(float(rng.uniform(0.05, 0.85)), random_angles(rng))
                       for _ in range(cfg["points"])]
        self.quad_eta = float(rng.uniform(0.05, 0.85))
        self.quad_angles = random_angles(rng)
        self.residue_etas = [float(e) for e in rng.uniform(0.4, 0.8, cfg["residues"])]
        self.ops_per_round = len(self.points) + 3 + len(self.residue_etas)
        self._quadruple = None

    def warm_up(self, rec) -> None:
        rec.op("point", lambda: self._point(rec, *self.points[0]))

    def _crosscheck(self, rec, eta: float, value: float, reference: float) -> bool:
        bound = max(1e-8, 20.0 * eta ** (2 * self.space.cutoff))
        return rec.ratio("fock.crosscheck", abs(value - reference), bound)

    def _point(self, rec, eta: float, angles: AngleSet) -> bool:
        closed = fock.chsh_closed(eta, angles)
        with rec.span("fock.chsh_matrix"):
            matrix = fock.chsh_matrix(eta, self.space, angles)
        return self._crosscheck(rec, eta, matrix, closed)

    def _build_quadruple(self, rec) -> bool:
        with rec.span("fock.fock_quadruple"):
            self._quadruple = fock.fock_quadruple(self.space, self.quad_angles)
        rec.size("fock.fock_quadruple.bytes", nbytes(self._quadruple))
        return True

    def _validate(self, rec) -> bool:
        with rec.span("chsh.validate_quadruple"):
            report = chsh.validate_quadruple(self._quadruple)
        within = rec.ratio("chsh.validate_quadruple", report.max_deviation,
                           report.tolerance)
        return report.passed and within

    def _chsh_value(self, rec) -> bool:
        quadruple, self._quadruple = self._quadruple, None
        with rec.span("fock.squeezed_state"):
            psi = fock.squeezed_state(self.quad_eta, self.space).ket
        with rec.span("chsh.chsh_value"):
            value = chsh.chsh_value(psi, quadruple)
        return self._crosscheck(rec, self.quad_eta, value,
                                fock.chsh_closed(self.quad_eta, self.quad_angles))

    def _residue(self, rec, eta: float) -> bool:
        n = self.space.cutoff
        with rec.span("fock.squeezed_state"):
            ket = fock.squeezed_state(eta, self.space).ket
        with rec.span("fock.bogoliubov_pair"):
            pair = fock.bogoliubov_pair(eta, self.space)
        with rec.span("fock.squeezed_hamiltonian"):
            hamiltonian = fock.squeezed_hamiltonian(eta, self.space)
        rec.size("fock.residue.bytes", nbytes(pair) + nbytes(hamiltonian))
        residues = []
        for op in (pair.alpha, pair.beta, hamiltonian):
            with rec.span("linalg.apply"):
                image = op.apply(ket)
            residues.append(image.norm)
        bound = 10.0 * eta ** (n - 1)
        h_bound = 10.0 * n * eta ** (n - 2)
        return all([rec.ratio("fock.residue", residues[0], bound),
                    rec.ratio("fock.residue", residues[1], bound),
                    rec.ratio("fock.residue", residues[2], h_bound)])

    def run_round(self, rec) -> None:
        heavy = [("quadruple", lambda: self._build_quadruple(rec)),
                 ("validate", lambda: self._validate(rec)),
                 ("chsh_value", lambda: self._chsh_value(rec))]
        heavy += [("residue", lambda eta=eta: self._residue(rec, eta))
                  for eta in self.residue_etas]
        # points run in stretches between the heavy ops, so their
        # latencies sample the whole round rather than one part of it
        step = -(-len(self.points) // (len(heavy) + 1))
        for k in range(len(heavy) + 1):
            for eta, angles in self.points[k * step:(k + 1) * step]:
                rec.op("point", lambda: self._point(rec, eta, angles))
            if k < len(heavy):
                rec.op(*heavy[k])


# ---------------------------------------------------------------------------
# field-smearing

MASS = 1.0


def random_packet(rng) -> kleingordon.GaussianPacket:
    """Off-centre packet with a complex amplitude; the ranges keep the
    default 128x32 rule converged to the 1e-10 that ``normalize`` needs."""
    center = tuple(float(c) for c in rng.uniform(-1.0, 1.0, 3))
    amplitude = float(rng.uniform(0.5, 2.0)) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    return kleingordon.GaussianPacket.on_shell(
        MASS, center, float(rng.uniform(0.7, 1.5)), amplitude)


def nodes(q: kleingordon.ShellQuadrature) -> int:
    """Quadrature nodes of the 3-D product rule (the azimuth gets twice
    the cos(theta) count)."""
    return q.radial * q.angular * 2 * q.angular


class FieldSmearing:
    """Smeared Klein-Gordon packets on the mass shell.

    Chosen because the 3-D spherical product rule spends its time here;
    it touches no dense Fock matrix.
    """

    SIZES = {
        "full": {"pairs": 8, "extra_sigma": 0, "min_rounds": 2},
        "tiny": {"pairs": 1, "extra_sigma": 15, "min_rounds": 1},
    }

    def __init__(self, seed: int, size: str):
        cfg = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.min_rounds = cfg["min_rounds"]
        self.pairs = [(random_packet(rng), random_packet(rng))
                      for _ in range(cfg["pairs"])]
        n_sigma = cfg["pairs"] + cfg["extra_sigma"]
        self.sigma_points = [(float(rng.uniform(0.05, 0.95)), random_angles(rng))
                             for _ in range(n_sigma)]
        # one orthonormal pair: width 2 and centres 4 apart along a
        # random axis put the overlap near 5e-9, under the 1e-6 bound
        axis = rng.normal(size=3)
        axis = 2.0 * axis / np.linalg.norm(axis)
        phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        self.sigma_pair = tuple(
            kleingordon.normalize(p, kleingordon.ShellQuadrature.for_packets(p))
            for p in (kleingordon.GaussianPacket.on_shell(MASS, tuple(axis), 2.0, phase),
                      kleingordon.GaussianPacket.on_shell(MASS, tuple(-axis), 2.0)))
        self.sigma_rule = kleingordon.ShellQuadrature.for_packets(*self.sigma_pair)
        self.ops_per_round = 5 * len(self.pairs) + len(self.sigma_points)
        self._units: dict[tuple[int, int], kleingordon.GaussianPacket] = {}
        self._norms: dict[tuple[int, int], float] = {}

    def warm_up(self, rec) -> None:
        rec.op("normalize", lambda: self._normalize(rec, 0, 0))

    def _normalize(self, rec, i: int, side: int) -> bool:
        packet = self.pairs[i][side]
        q = kleingordon.ShellQuadrature.for_packets(packet)
        with rec.span("kleingordon.normalize"):
            self._units[i, side] = kleingordon.normalize(packet, q)
        return rec.ratio("kleingordon.norm", q.tail_bound(packet, packet), q.tol / 10.0)

    def _recheck(self, rec, i: int, side: int) -> bool:
        unit = self._units[i, side]
        q = kleingordon.ShellQuadrature.for_packets(unit)
        with rec.span("kleingordon.test_norm"):
            estimate = kleingordon.test_norm(unit, q)
        self._norms[i, side] = estimate.value
        converged = rec.ratio("kleingordon.norm", estimate.error, 1e-10 * estimate.value)
        return converged and abs(estimate.value - 1.0) <= 1e-10

    def _overlap(self, rec, i: int) -> bool:
        f, g = self._units.pop((i, 0)), self._units.pop((i, 1))
        q = kleingordon.ShellQuadrature.for_packets(f, g)
        with rec.span("kleingordon.shell_inner_product"):
            fg = kleingordon.shell_inner_product(f, g, q)
        with rec.span("kleingordon.shell_inner_product"):
            gf = kleingordon.shell_inner_product(g, f, q)
        rec.count("kleingordon.shell_inner_product.nodes", 2 * nodes(q))
        norms = math.sqrt(self._norms.pop((i, 0)) * self._norms.pop((i, 1)))
        symmetric = abs(fg - gf.conjugate()) <= q.tol * norms
        return symmetric and abs(fg) <= norms * (1.0 + 1e-10)

    def _sigma(self, rec, sigma: float, angles: AngleSet) -> bool:
        f, g = self.sigma_pair
        with rec.span("kleingordon.sigma_chsh"):
            value = kleingordon.sigma_chsh(sigma, angles, f, g, self.sigma_rule)
        return abs(value - fock.chsh_closed(sigma, angles)) <= 1e-12

    def run_round(self, rec) -> None:
        for i in range(len(self.pairs)):
            for side in (0, 1):
                rec.op("normalize", lambda: self._normalize(rec, i, side))
            for side in (0, 1):
                rec.op("test_norm", lambda: self._recheck(rec, i, side))
            rec.op("overlap", lambda: self._overlap(rec, i))
        for sigma, angles in self.sigma_points:
            rec.op("sigma_chsh", lambda: self._sigma(rec, sigma, angles))
        self._units.clear()
        self._norms.clear()


WORKLOADS = {"fock-oracle": FockOracle, "field-smearing": FieldSmearing}
