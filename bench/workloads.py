"""The three workloads: seeded inputs, one op each, and checks of every output.

Each workload turns the benchmark seed into op inputs; the program sees only
those inputs.  ``inputs(i)`` is built and ``check(inp, out)`` is run outside
the timed region; ``op(inp)`` is the timed call into qpd3.  qpd3 functions
are looked up on their modules at call time, so a traced run sees the
wrapped versions.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import qpd3
from qpd3 import cli, closedform, equilibrium

import reference

#: Absolute tolerance for agreement with the pure-state reference.
REF_TOL = 1e-12


class _SeedStream:
    """Per-op seeds drawn from the benchmark seed; ``stream`` keeps workloads apart."""

    def __init__(self, seed: int, stream: int):
        self._rng = np.random.default_rng([seed, stream])
        self._seeds: list[int] = []

    def __getitem__(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(int(self._rng.integers(1, 2**31 - 1)))
        return self._seeds[i]


class Verify:
    """``build_verify_bundle(seed_i)`` then ``render_json``: ``qpd3 verify`` after start-up."""

    name = "verify"

    def __init__(self, seed: int):
        self._seeds = _SeedStream(seed, 0)
        self._digests: dict[int, str] = {}

    def inputs(self, i: int) -> int:
        # Op 1 repeats op 0's seed, so the byte-identity check costs no extra
        # op; qpd3 keeps no cache, so the repeat is not cheaper.
        return self._seeds[0 if i == 1 else i]

    def op(self, seed: int):
        doc, hard = cli.build_verify_bundle(seed)
        return cli.render_json(doc), hard

    def fingerprint(self, out) -> str:
        return hashlib.sha256(out[0].encode()).hexdigest()

    def check(self, seed: int, out) -> list[str]:
        hard = out[1]
        errors = [f"hard failures {hard}"] if hard else []
        digest = self.fingerprint(out)
        if self._digests.setdefault(seed, digest) != digest:
            errors.append(f"rendered bundle for seed {seed} differs between runs")
        return errors


class Audit:
    """``compare_to_oracle(sample_any, 1000, seed_i)``: the per-call oracle path."""

    name = "audit"
    samples = 1000

    def __init__(self, seed: int):
        self._seeds = _SeedStream(seed, 1)

    def inputs(self, i: int) -> int:
        return self._seeds[i]

    def op(self, seed: int):
        return closedform.compare_to_oracle(closedform.sample_any, self.samples, seed)

    @staticmethod
    def _columns(report):
        s = report.samples
        return (
            np.array([x.gamma for x in s]),
            np.array([x.delta for x in s]),
            np.array([x.params for x in s]),
            np.array([x.oracle for x in s]),
            np.array([x.closed_form for x in s]),
            np.array([x.delta_abs for x in s]),
        )

    def fingerprint(self, report) -> str:
        h = hashlib.sha256()
        for column in self._columns(report):
            h.update(column.tobytes())
        return h.hexdigest()

    def check(self, seed: int, report) -> list[str]:
        if report.seed != seed or report.sample_count != self.samples:
            return [f"report for seed {report.seed} with {report.sample_count} samples"]
        gamma, delta, params, oracle, closed, delta_abs = self._columns(report)
        errors = []
        err = float(np.max(np.abs(reference.payoffs(gamma, delta, params) - oracle)))
        if not err <= REF_TOL:
            errors.append(f"oracle differs from the reference by {err:.3g}")
        if not np.array_equal(delta_abs, np.abs(oracle - closed)):
            errors.append("delta_abs is not |oracle - closed_form|")
        return errors


_HALF = math.pi / 2
_POINTS = (("PP", 0.0, 0.0), ("PE", 0.0, _HALF), ("EP", _HALF, 0.0), ("EE", _HALF, _HALF))
_THETAS = (0.0, _HALF, math.pi)

#: Grid gaps at the stated corner profiles; equal on the default and refined grids.
KNOWN_GAPS = {
    ("PP", math.pi): (0.0, 0.0, 0.0),
    ("PE", 0.0): (0.5, 0.5, 0.5),
    ("EP", 0.0): (0.5, 0.5, 0.5),
    ("EE", 0.0): (2.0, 2.0, 2.0),
    ("PE", _HALF): (0.0, 1.75, 0.0),
    ("EP", _HALF): (0.25, 0.25, 0.25),
}


class NashMap:
    """``verify_nash`` on the refined grid, one (gamma, delta) point and stated profile per op.

    Points cycle through the four regime corners and a fresh seeded interior
    point; profiles cycle through theta = 0, pi/2 and pi (all-defect), with
    Alice's phases (pi, pi) and the partners' (0, pi/2).  Periods 5 and 3 make
    every (point, profile) pair come up once in 15 ops.
    """

    name = "nash-map"
    subset = 64

    def __init__(self, seed: int):
        self._seed = seed
        self._rng = np.random.default_rng([seed, 2])
        self._offset = int(self._rng.integers(0, 15))
        self._interior: list[tuple[float, float]] = []
        self.grid = equilibrium.GridSpec().refined()
        self._axes = (self.grid.theta_values(), self.grid.alpha_values(), self.grid.beta_values())

    def inputs(self, i: int):
        k = i + self._offset
        if k % 5 < 4:
            label, gamma, delta = _POINTS[k % 5]
        else:
            while len(self._interior) <= k // 5:
                self._interior.append(tuple(float(x) for x in self._rng.uniform(0.0, _HALF, 2)))
            gamma, delta = self._interior[k // 5]
            label = "interior"
        theta = _THETAS[k % 3]
        alice = qpd3.StrategyParams(theta, math.pi, math.pi)
        partner = qpd3.StrategyParams(theta, 0.0, _HALF)
        profile = equilibrium.Profile(alice, partner, partner)
        return i, label, qpd3.GameConfig(gamma, delta), profile

    def op(self, inp):
        _, _, config, profile = inp
        return equilibrium.verify_nash(profile, config, self.grid)

    def fingerprint(self, report) -> str:
        return repr((report.gaps, report.payoff.as_tuple()))

    def check(self, inp, report) -> list[str]:
        i, label, config, profile = inp
        played = np.array([p.as_tuple() for p in profile.as_tuple()])
        own = reference.payoffs(config.gamma, config.delta, played[None])[0]
        gaps = np.array(report.gaps)
        errors = []
        err = float(np.max(np.abs(own - np.array(report.payoff.as_tuple()))))
        if not err <= REF_TOL:
            errors.append(f"payoff differs from the reference by {err:.3g}")
        if not np.all(gaps >= 0.0):
            errors.append(f"negative gap in {report.gaps}")

        # No grid deviation in a seeded subset may beat the reported gap.
        rng = np.random.default_rng([self._seed, 3, i])
        picks = np.stack([axis[rng.integers(0, len(axis), self.subset)] for axis in self._axes], 1)
        deviated = np.repeat(played[None], 3 * self.subset, axis=0)
        for k in range(3):
            deviated[k * self.subset:(k + 1) * self.subset, k] = picks
        gains = reference.payoffs(config.gamma, config.delta, deviated)
        for k in range(3):
            best = float(gains[k * self.subset:(k + 1) * self.subset, k].max() - own[k])
            if best > gaps[k] + REF_TOL:
                errors.append(f"player {k} deviation gains {best!r} > reported gap {gaps[k]!r}")

        known = KNOWN_GAPS.get((label, profile.pa.theta))
        if known is not None and not np.allclose(gaps, known, rtol=0.0, atol=REF_TOL):
            errors.append(f"{label} theta={profile.pa.theta:.6g} gaps {report.gaps} != {known}")
        return errors


WORKLOADS = {w.name: w for w in (Verify, Audit, NashMap)}
