"""``dickekw report`` as ``SECTIONS``, ``(title, function)`` pairs: each function takes
only the parsed arguments and returns its lines, so a section runs on its own."""

from __future__ import annotations

import time

import numpy as np

from . import correlations as corr, qmat, states, tomography
from .io import _g

P_MIX = 0.765  # the white-noise resource model's mixing parameter


def _noisy_projection():
    """The white-noise model projected on d=1, its probability, (p, c) and closed forms."""
    w_noisy, prob = states.reduce_state(states.noisy_dicke(P_MIX), [(3, 1)])
    model = corr.extract_pc(corr.correlator_table(w_noisy))
    return w_noisy, prob, model, corr.kw_symmetric(corr.clip_to_domain(model.p, model.c))


def source_and_circuit(args) -> list[str]:
    xi = states.ket_xi()
    t0 = time.perf_counter()
    out = states.circuit_to_dicke(xi)
    ms = (time.perf_counter() - t0) * 1e3
    overlap = abs(np.vdot(states.dicke(4, 2), out)) ** 2
    return [*(f"  source amplitude |{i:04b}> = {_g(xi[i].real)}" for i in (0b0001, 0b0010, 0b1101)),
            f"  circuit overlap with dicke(4,2): {_g(overlap)}  ({ms:.3f} ms)"]


def projective_reductions(args) -> list[str]:
    d42, lines = states.dicke(4, 2), []
    for j, name in enumerate(qmat.QUBIT_NAMES):
        for outcome, partner in ((0, states.dicke(3, 2)), (1, states.dicke(3, 1))):
            post, prob = states.reduce_state(d42, [(j, outcome)])
            lines.append(f"  {name}={outcome}: probability {_g(prob)}, "
                         f"fidelity to w{2 - outcome} = {_g(qmat.fidelity_pure(partner, post))}")
    for c, d in ((0, 1), (1, 0)):
        post, prob = states.reduce_state(d42, [(2, c), (3, d)])
        lines.append(f"  c={c},d={d}: probability {_g(prob)}, "
                     f"fidelity to psi-plus = {_g(qmat.fidelity_pure(states.psi_plus(), post))}")
    post, prob = states.reduce_state(d42, [(0, 1), (2, 0), (3, 1)])
    pops = post.diagonal().real
    return lines + [f"  a=1,c=0,d=1: probability {_g(prob)}, "
                    f"qubit-b populations ({_g(pops[0])}, {_g(pops[1])})"]


def white_noise_model(args) -> list[str]:
    _, prob, model, _ = _noisy_projection()
    fid = qmat.fidelity_pure(states.dicke(4, 2), states.noisy_dicke(P_MIX))
    return [f"  mixing parameter p = {P_MIX}", f"  fidelity to dicke(4,2): {_g(fid)}",
            f"  projection d=1: probability {_g(prob)}, "
            f"extracted (p, c) = ({_g(model.p)}, {_g(model.c)})"]


def pure_balance(args) -> list[str]:
    r = corr.kw_exact(qmat.dm(states.dicke(3, 1)), "b|a,c")
    rs = corr.kw_symmetric(corr.SymmetricModel(1 / 3, 1 / 3))
    return [f"  exact {r.assignment}: S={_g(r.S)} J={_g(r.J)} E={_g(r.E)} "
            f"KW={_g(r.KW)} theta*={_g(r.theta_opt)}",
            f"  closed form (p=c=1/3): S={_g(rs.S)} J={_g(rs.J)} E={_g(rs.E)} KW={_g(rs.KW)}"]


def measured_table_balance(args) -> list[str]:
    ref = corr.REFERENCE_CORRELATOR_TABLE
    table = corr.apply_sign_map(ref, "ideal-w1")
    mt = corr.extract_pc(table)
    rt = corr.kw_from_correlators(table, samples=args.samples, seed=args.seed)
    return [*("  {} = {} +/- {}".format(*row)
              for row in zip(ref.paulis, ref.values.tolist(), ref.sigmas.tolist())),
            f"  extracted (p, c) = ({_g(mt.p)}, {_g(mt.c)})",
            f"  KW = {_g(rt.KW)} +/- {_g(rt.sigma)}",
            f"  draws clipped to the physical domain: {_g(rt.clipped_frac)}"]


def projected_noise_balance(args) -> list[str]:
    w_noisy, _, model, rm = _noisy_projection()
    reports, average = corr.kw_all_permutations(w_noisy)
    kws = sorted({round(r.KW, 9) for r in reports})
    return [f"  exact per assignment: {', '.join(map(_g, kws))} (six assignments); "
            f"average {_g(average)}",
            f"  closed-form route (p={_g(model.p)}, c={_g(model.c)}): KW = {_g(rm.KW)}"]


def tomography_round_trip(args) -> list[str]:
    w1_ket, settings = states.dicke(3, 1), tomography.settings_full(3)
    counts = tomography.simulate_counts(qmat.dm(w1_ket), settings, args.counts, args.seed)
    fit = tomography.mle_reconstruct(counts)
    bell_counts = tomography.simulate_counts(
        qmat.dm(states.psi_plus()), tomography.settings_full(2), 200, args.seed + 1)
    mean, sigma = tomography.bootstrap_fidelity(
        bell_counts, states.psi_plus(), n_boot=args.bootstrap, seed=args.seed + 2)
    return [f"  w1 at mean {_g(args.counts)} counts, {len(settings)} settings: "
            f"mle fidelity = {_g(qmat.fidelity_pure(w1_ket, fit.rho))} "
            f"(iterations {fit.iterations}, converged {fit.converged})",
            f"  psi-plus at mean 200 counts: bootstrap fidelity = {_g(mean)} +/- {_g(sigma)}"]


def correlator_pipeline(args) -> list[str]:
    w_noisy, _, _, rm = _noisy_projection()
    counts = tomography.simulate_counts(w_noisy, tomography.settings_full(3), args.counts,
                                        args.seed)
    measured = tomography.correlators_from_counts(counts, corr.kw_correlator_paulis())
    rp = corr.kw_from_correlators(measured, samples=args.samples, seed=args.seed)
    return [f"  noisy projection, simulated counts -> correlators -> KW = "
            f"{_g(rp.KW)} +/- {_g(rp.sigma)}",
            f"  draws clipped to the physical domain: {_g(rp.clipped_frac)}",
            f"  exact-table reference: KW = {_g(rm.KW)}"]


SECTIONS = (
    ("source state and circuit", source_and_circuit),
    ("projective reductions of dicke(4,2)", projective_reductions),
    ("white-noise resource model", white_noise_model),
    ("monogamy balance: pure single-excitation state", pure_balance),
    ("monogamy balance: measured correlator table", measured_table_balance),
    ("monogamy balance: white-noise model, projected", projected_noise_balance),
    ("tomography round trip", tomography_round_trip),
    ("end-to-end correlator pipeline", correlator_pipeline),
)


def report_text(args) -> str:
    """The header, then each section: a blank line, ``[title]`` and its lines."""
    lines = ["dicke resource reproduction report", "=" * 34,
             f"parameters: seed={args.seed} mean_counts={_g(args.counts)} "
             f"bootstrap={args.bootstrap} samples={args.samples}"]
    for title, section in SECTIONS:
        lines += ["", f"[{title}]", *section(args)]
    return "\n".join(lines)
