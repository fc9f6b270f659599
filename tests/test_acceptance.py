"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
import time

import numpy as np
from conftest import basis_state, embed_product, haar_state, haar_unitary

import entmean as em

BETA = 3.0 * math.pi / 5.0


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _family_c_gbc_peak() -> float:
    """Analytic gbc peak of family c, computed with `math` alone.

    With a = sin(t)cos(beta), b = sin(t)sin(beta), c = cos(t) and s = sin(t),
    the seven squared regularized cut concurrences are 4b^2(1-b^2) and
    4a^2(1-a^2) for the first two qubits, 4s^2c^2 for each of the last two,
    (4/3)*2s^2c^2 for the {01|23} cut and (4/3)*2(a^2b^2 + a^2c^2 + b^2c^2)
    for {02|13} and {03|12}.  gbc is the geometric mean of their square
    roots, so its peak maximizes the sum of their logs, a unimodal function
    on (0, pi/2) that golden section brackets without touching the ends.
    The search is written out here rather than taken from entmean so that the
    value does not depend on the code under test.
    """
    cb2 = math.cos(BETA) ** 2

    def log_sum(theta: float) -> float:
        s2 = math.sin(theta) ** 2
        c2 = 1.0 - s2
        a2 = s2 * cb2
        b2 = s2 - a2
        mixed = (4.0 / 3.0) * 2.0 * (a2 * b2 + a2 * c2 + b2 * c2)
        cuts = (
            4.0 * b2 * (1.0 - b2),
            4.0 * a2 * (1.0 - a2),
            4.0 * s2 * c2,
            4.0 * s2 * c2,
            (4.0 / 3.0) * 2.0 * s2 * c2,
            mixed,
            mixed,
        )
        return sum(math.log(cut) for cut in cuts)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, math.pi / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = log_sum(x1), log_sum(x2)
    while hi - lo > 1e-12:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = log_sum(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = log_sum(x1)
    return 0.5 * (lo + hi)


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for n in range(2, 13):
        worst = max(worst, abs(em.gbc_ghz(n).gbc - em.gbc(em.make_ghz(n))))
        worst = max(worst, abs(em.gbc_w(n).gbc - em.gbc(em.make_w(n))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(1, ok, f"worst |closed - numeric| = {worst:.3e} over n=2..12 in {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_2_normalization():
    ghz3 = abs(em.gbc(em.make_ghz(3)) - 1.0)
    bell = abs(em.gbc(em.make_ghz(2)) - 1.0)
    amps = np.zeros(9)
    amps[[0, 4, 8]] = 1 / math.sqrt(3)
    qutrit = abs(
        em.concurrence(em.make_custom([3, 3], amps), em.Bipartition.from_parties([0], 2))
        - 1.0
    )
    ok = max(ghz3, bell, qutrit) <= 1e-12
    _report(2, ok, f"|gbc(GHZ3)-1|={ghz3:.2e} |gbc(Bell)-1|={bell:.2e} |C(qutrit)-1|={qutrit:.2e}")
    assert ghz3 <= 1e-12
    assert bell <= 1e-12
    assert qutrit <= 1e-12


def test_criterion_3_discriminance():
    rng = np.random.default_rng(2024)

    # biseparable corpus: every bipartition placement for n = 3..5, two
    # random draws per placement (3 + 7 + 15 cuts -> 50 states)
    corpus = []
    for n in range(3, 6):
        for part in em.enumerate_bipartitions(n):
            for _ in range(2):
                side_a = haar_state([2] * len(part.parties_a), rng)
                side_b = haar_state([2] * (n - len(part.parties_a)), rng)
                corpus.append(embed_product(side_a, side_b, part))
    assert len(corpus) >= 50
    worst_zero = 0.0
    for state in corpus:
        report = em.full_report(state)
        worst_zero = max(worst_zero, report.gbc, report.gmc, report.ggm)

    # genuinely entangled states must score strictly positive
    entangled = [em.make_ghz(n) for n in range(3, 9)]
    entangled += [em.make_w(n) for n in range(3, 9)]
    for theta in (0.3, 0.7, 1.2):
        entangled += [em.family_state(f, theta) for f in ("a", "b", "c")]
    for _ in range(5):
        candidate = haar_state([2, 2, 2, 2], rng)
        cuts = [
            em.concurrence(candidate, part)
            for part in em.enumerate_bipartitions(4)
        ]
        if min(cuts) > 1e-3:  # all-cuts positivity: genuinely entangled
            entangled.append(candidate)
    least_positive = min(
        min(em.gbc(s), em.gmc(s), em.ggm(s)) for s in entangled
    )

    ok = worst_zero <= 1e-10 and least_positive > 1e-6
    _report(
        3,
        ok,
        f"{len(corpus)} biseparable states max measure {worst_zero:.2e}; "
        f"least positive over {len(entangled)} entangled states {least_positive:.2e}",
    )
    assert worst_zero <= 1e-10
    assert least_positive > 1e-6


def test_criterion_4_ghz_w_ordering():
    gaps = [em.gbc_ghz(n).gbc - em.gbc_w(n).gbc for n in range(3, 21)]
    ratios = {n: em.ratio_w_over_ghz(n) for n in (5, 10, 20)}
    increasing = all(
        em.ratio_w_over_ghz(n + 1) > em.ratio_w_over_ghz(n) for n in range(5, 20)
    )
    closer = (1.0 - ratios[20]) < (1.0 - ratios[5])
    ok = min(gaps) > 0 and ratios[5] < ratios[10] < ratios[20] and increasing and closer
    _report(
        4,
        ok,
        f"min gbc gap n=3..20: {min(gaps):.3e}; "
        f"ratio 5/10/20 = {ratios[5]:.4f}/{ratios[10]:.4f}/{ratios[20]:.4f}",
    )
    assert min(gaps) > 0
    assert ratios[5] < ratios[10] < ratios[20]
    assert increasing
    assert closer


def _sweep_pair(steps=1001):
    rows_a = em.run_sweep(em.SweepSpec(family="a", steps=steps))
    rows_b = em.run_sweep(em.SweepSpec(family="b", steps=steps))
    return rows_a, rows_b


def test_criterion_5_fill_vs_gbc_reversals():
    start = time.monotonic()
    rows_a, rows_b = _sweep_pair()
    findings = em.find_ordering_reversals(
        rows_a, rows_b, x="fill", y="gbc", match_tol=2e-3, sep_min=2e-2
    )
    pairs = [f for f in findings if f.kind == "equal-x-different-y"]

    fill_a = np.array([r.values["fill"] for r in rows_a])
    gbc_a = np.array([r.values["gbc"] for r in rows_a])
    fill_b = np.array([r.values["fill"] for r in rows_b])
    gbc_b = np.array([r.values["gbc"] for r in rows_b])
    # required direction: some second-family state carries more fill yet
    # less gbc than some first-family state
    direction = bool(
        np.any(
            (fill_b[None, :] > fill_a[:, None] + 1e-2)
            & (gbc_b[None, :] < gbc_a[:, None] - 1e-2)
        )
    )
    elapsed = time.monotonic() - start
    ok = bool(pairs) and direction and elapsed < 10.0
    _report(
        5,
        ok,
        f"{len(pairs)} matched-fill pairs, direction(larger fill, smaller gbc)={direction}, "
        f"{elapsed:.2f}s",
    )
    assert pairs
    assert direction
    assert elapsed < 10.0


def test_criterion_6_gmc_vs_gbc_reversals():
    rows_a, rows_b = _sweep_pair()
    findings = em.find_ordering_reversals(
        rows_a, rows_b, x="gmc", y="gbc", match_tol=2e-3, sep_min=2e-2
    )
    pairs = [f for f in findings if f.kind == "equal-x-different-y"]

    gmc_a = np.array([r.values["gmc"] for r in rows_a])
    gbc_a = np.array([r.values["gbc"] for r in rows_a])
    gmc_b = np.array([r.values["gmc"] for r in rows_b])
    gbc_b = np.array([r.values["gbc"] for r in rows_b])
    # cross-family pair whose gmc and gbc orderings point opposite ways
    # (realized with the first-family state on the smaller-gmc side)
    direction = bool(
        np.any(
            (gmc_a[:, None] < gmc_b[None, :] - 1e-2)
            & (gbc_a[:, None] > gbc_b[None, :] + 1e-2)
        )
    )
    ok = bool(pairs) and direction
    _report(
        6,
        ok,
        f"{len(pairs)} matched-gmc pairs, direction(smaller gmc, larger gbc)={direction}",
    )
    assert pairs
    assert direction


def test_criterion_7_family_c_shape():
    rows = em.run_sweep(em.SweepSpec(family="c"))
    thetas = np.array([r.theta for r in rows])
    col_gbc = np.array([r.values["gbc"] for r in rows])
    col_gmc = np.array([r.values["gmc"] for r in rows])

    peak_gbc = em.find_peak(rows, "gbc")
    peak_ggm = em.find_peak(rows, "ggm")
    peak_gmc = em.find_peak(rows, "gmc")
    t1, t2, t3 = peak_gbc.theta, peak_ggm.theta, peak_gmc.theta

    # peak location accuracy, checked against analytic values: the gbc peak
    # of the closed-form cut concurrences and the binding-cut crossings of
    # the two min-based measures
    gbc_peak = _family_c_gbc_peak()
    cb2 = math.cos(BETA) ** 2
    ggm_cross = math.atan(math.sqrt(1.0 / cb2))
    u = ((8.0 / 3.0) - 4.0 * cb2) / ((8.0 / 3.0) - 4.0 * cb2 * cb2)
    gmc_cross = math.asin(math.sqrt(u))
    located = (
        abs(t1 - gbc_peak) <= 1e-5
        and abs(t2 - ggm_cross) <= 1e-5
        and abs(t3 - gmc_cross) <= 1e-5
    )

    # the analytic peaks fix the order the refined ones must follow:
    # regularization moves the gmc crossing below the ggm one
    analytic_order = gbc_peak < gmc_cross < ggm_cross
    ordering = t1 < t3 < t2

    i_lo = int(np.searchsorted(thetas, t1))
    i_hi = int(np.searchsorted(thetas, t3, side="right")) - 1
    window = slice(i_lo, i_hi + 1)
    monotone = bool(
        np.all(np.diff(col_gbc[window]) <= 1e-12)
        and np.all(np.diff(col_gmc[window]) >= -1e-12)
    )

    # smoothness contrast on the peak-to-peak window; the stencil extends
    # one point past the gmc peak so the kink straddling it registers.
    # (Over the full sweep the gbc column also spikes, but only at the
    # theta = pi/2 boundary where three cuts vanish together and the curve
    # leaves with a (pi/2 - theta)^(3/7) branch point - a boundary feature,
    # not an interior slope discontinuity.)
    d2_gbc = np.abs(col_gbc[:-2] - 2 * col_gbc[1:-1] + col_gbc[2:])
    d2_gmc = np.abs(col_gmc[:-2] - 2 * col_gmc[1:-1] + col_gmc[2:])
    stencils = slice(i_lo - 1, i_hi + 1)
    gbc_ratio = float(np.max(d2_gbc[stencils]) / np.median(d2_gbc[stencils]))
    gmc_ratio = float(np.max(d2_gmc[stencils]) / np.median(d2_gmc[stencils]))
    full_gbc_ratio = float(np.max(d2_gbc) / np.median(d2_gbc))
    smooth = gbc_ratio <= 10.0 and gmc_ratio >= 100.0

    ok = located and analytic_order and ordering and monotone and smooth
    _report(
        7,
        ok,
        f"t1={t1:.6f} t2={t2:.6f} t3={t3:.6f} ordering(t1<t3<t2)={ordering}; "
        f"monotone={monotone}; d2 ratios gbc={gbc_ratio:.1f} gmc={gmc_ratio:.1f} "
        f"(full-sweep gbc {full_gbc_ratio:.1f})",
    )
    assert located, "peak refinement drifted from the analytic peaks"
    assert analytic_order, (
        f"analytic peaks out of order: gbc {gbc_peak:.6f}, gmc {gmc_cross:.6f}, "
        f"ggm {ggm_cross:.6f}"
    )
    assert monotone, "gbc must fall and gmc rise between their peaks"
    assert smooth, f"expected gbc<=10x and gmc>=100x median, got {gbc_ratio:.1f}/{gmc_ratio:.1f}"
    assert ordering, (
        f"peak ordering t1 < t3 < t2 violated: t1={t1:.6f}, t2={t2:.6f}, t3={t3:.6f}; "
        f"the analytic peaks are gbc {gbc_peak:.6f} < gmc {gmc_cross:.6f} "
        f"< ggm atan(1+sqrt5)={ggm_cross:.6f}"
    )


def test_criterion_8_property_suites(tmp_path):
    rng = np.random.default_rng(77)

    # local-unitary invariance, 100 random trials
    dims_pool = [(2, 2), (2, 2, 2), (2, 3), (3, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2)]
    lu_drift = 0.0
    for trial in range(100):
        dims = dims_pool[trial % len(dims_pool)]
        state = haar_state(list(dims), rng)
        party = int(rng.integers(len(dims)))
        rotated = em.apply_local_unitary(state, party, haar_unitary(dims[party], rng))
        for measure in (em.gbc, em.gmc, em.ggm):
            lu_drift = max(lu_drift, abs(measure(rotated) - measure(state)))
        if dims == (2, 2, 2):
            lu_drift = max(
                lu_drift,
                abs(em.concurrence_fill(rotated) - em.concurrence_fill(state)),
            )

    # Schmidt-side symmetry and the purity dual path
    side_gap = 0.0
    dual_gap = 0.0
    for _ in range(20):
        state = haar_state([2, 2, 2, 2], rng)
        for part in em.enumerate_bipartitions(4):
            block = em.reshape(state, part)
            rows_gram = block @ block.conj().T
            cols_gram = block.conj().T @ block
            p_rows = float(np.trace(rows_gram @ rows_gram).real)
            p_cols = float(np.trace(cols_gram @ cols_gram).real)
            side_gap = max(side_gap, abs(p_rows - p_cols))
            lam = em.schmidt_weights(state, part)
            dual_gap = max(dual_gap, abs(p_rows - float(np.sum(lam**2))))

    counts_ok = all(
        len(em.enumerate_bipartitions(n))
        == em.cardinality_formula(n)
        == 2 ** (n - 1) - 1
        for n in range(2, 21)
    )

    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    em.emit_csv(em.run_sweep(em.SweepSpec(family="a", steps=101)), first)
    em.emit_csv(em.run_sweep(em.SweepSpec(family="a", steps=101)), second)
    deterministic = first.read_bytes() == second.read_bytes()

    ok = (
        lu_drift <= 1e-9
        and side_gap <= 1e-10
        and dual_gap <= 1e-10
        and counts_ok
        and deterministic
    )
    _report(
        8,
        ok,
        f"LU drift {lu_drift:.2e}; side symmetry {side_gap:.2e}; "
        f"dual path {dual_gap:.2e}; counts n<=20 {counts_ok}; csv identical {deterministic}",
    )
    assert lu_drift <= 1e-9
    assert side_gap <= 1e-10
    assert dual_gap <= 1e-10
    assert counts_ok
    assert deterministic


def _ame_4_3():
    """AME(4,3) from the orthogonal Latin square: |i, j, i+j, i+2j> mod 3."""
    amps = np.zeros(81)
    for i in range(3):
        for j in range(3):
            amps[27 * i + 9 * j + 3 * ((i + j) % 3) + (i + 2 * j) % 3] = 1.0 / 3.0
    return em.make_custom([3, 3, 3, 3], amps)


def _ame_5_2():
    """AME(5,2): the logical |0> of the five-qubit code.

    |00000> is projected onto the +1 eigenspace of the stabilizers XZZXI and
    its cyclic shifts; it already is a +1 eigenstate of logical ZZZZZ.
    """
    paulis = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]), "Z": np.diag([1, -1])}
    vec = np.zeros(32)
    vec[0] = 1.0
    for shift in range(4):
        word = "XZZXI"[-shift:] + "XZZXI"[:-shift]  # shift 0: "XZZXI" + ""
        op = paulis[word[0]]
        for letter in word[1:]:
            op = np.kron(op, paulis[letter])
        vec = 0.5 * (vec + op @ vec)
    return em.make_custom([2] * 5, vec, renormalize=True)


def test_criterion_9_ame_maxima():
    # AME states are maximally mixed across every cut, so gbc and gmc reach
    # 1 and ggm its ceiling 1 - 1/d, also after random local unitaries
    rng = np.random.default_rng(97)
    states = {
        "Bell": (em.make_ghz(2), 2),
        "GHZ3": (em.make_ghz(3), 2),
        "AME(4,3)": (_ame_4_3(), 3),
        "AME(5,2)": (_ame_5_2(), 2),
    }
    worst = {}
    for name, (state, d) in states.items():
        rotated = state
        for party in range(state.n_parties):
            rotated = em.apply_local_unitary(rotated, party, haar_unitary(d, rng))
        worst[name] = max(
            max(abs(em.gbc(s) - 1.0), abs(em.gmc(s) - 1.0), abs(em.ggm(s) - (1.0 - 1.0 / d)))
            for s in (state, rotated)
        )
    ok = max(worst.values()) <= 1e-14
    _report(9, ok, "; ".join(f"{name} off by {gap:.1e}" for name, gap in worst.items()))
    assert ok, worst
