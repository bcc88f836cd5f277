"""Command-line interface.

Subcommands: ``state``, ``tomo simulate``, ``tomo reconstruct``,
``kw exact|symmetric|correlators``, and ``report``.  Numbers print with six
significant digits; files keep full precision and are written atomically.
Exit status is 0 only when all requested outputs were produced.  Each
command imports only the layers it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import io, qmat, states


def _g(x: float) -> str:
    return f"{x:.6g}"


def _emit(out_path: str | None, text: str) -> None:
    if out_path:
        io.atomic_write_text(out_path, text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _print_report_line(r) -> None:  # r: correlations.KWReport
    line = (f"{r.assignment} [{r.method}]: S={_g(r.S)} J={_g(r.J)} "
            f"E={_g(r.E)} KW={_g(r.KW)}")
    if r.sigma is not None:
        line += f" +/- {_g(r.sigma)}"
    print(line)


def cmd_state(args) -> int:
    state = states.state_by_name(args.name)
    if args.project:
        n = qmat.num_qubits(state)
        assignments = states.parse_projections(args.project, n)
        state, prob = states.reduce_state(state, assignments)
        print(f"projection probability: {_g(prob)}")
    _emit(args.out, io.density_matrix_document(state))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_tomo_simulate(args) -> int:
    from . import tomography
    rho = io.load_density_matrix(args.infile)
    n = qmat.num_qubits(rho)
    settings = tomography.settings_full(n)
    table = tomography.simulate_counts(rho, settings, args.counts, args.seed)
    total = int(table.counts.sum())
    if args.out:
        io.save_counts(args.out, table)
        print(f"wrote {args.out}")
    else:
        print(io.counts_document(table))
    print(f"simulated {len(settings)} settings, {total} events")
    return 0


def cmd_tomo_reconstruct(args) -> int:
    from . import tomography
    if args.bootstrap and not args.target:
        raise ValueError("--bootstrap needs --target, the pure state to score the fits against")
    table = io.load_counts(args.counts)
    if args.method == "linear":
        rho = tomography.linear_inversion(table)
        lo = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
        if lo < -1e-10:
            print(f"warning: not positive semidefinite (min eigenvalue {_g(lo)})")
    else:
        result = tomography.mle_reconstruct(table)
        rho = result.rho
        print(f"mle: iterations={result.iterations} "
              f"log_likelihood={_g(result.log_likelihood)} "
              f"converged={result.converged}")
    if args.target:
        # the file is Hermitian, and the fidelity ignores the global phase
        values, vectors = np.linalg.eigh(io.load_density_matrix(args.target))
        if values[-1] < 1 - 1e-6:
            raise ValueError("fidelity target must be a pure state")
        target = vectors[:, -1]
        fid = qmat.fidelity_pure(target, rho)
        if args.bootstrap:
            mean, sigma = tomography.bootstrap_fidelity(
                table, target, n_boot=args.bootstrap, seed=args.seed)
            print(f"fidelity = {_g(fid)} (bootstrap {_g(mean)} +/- {_g(sigma)})")
        else:
            print(f"fidelity = {_g(fid)}")
    if args.out:
        io.save_density_matrix(args.out, rho)
        print(f"wrote {args.out}")
    return 0


def cmd_kw_exact(args) -> int:
    from . import correlations as corr
    rho = io.load_density_matrix(args.infile)
    if args.all_permutations:
        reports, average = corr.kw_all_permutations(rho)
        for r in reports:
            _print_report_line(r)
        print(f"average KW = {_g(average)}")
        if args.out:
            doc = json.dumps([dataclasses.asdict(r) for r in reports], indent=1)
            io.atomic_write_text(args.out, doc + "\n")
            print(f"wrote {args.out}")
        return 0
    report = corr.kw_exact(rho, args.assignment)
    _print_report_line(report)
    if args.out:
        io.save_kw_report(args.out, report)
        print(f"wrote {args.out}")
    return 0


def cmd_kw_symmetric(args) -> int:
    from . import correlations as corr
    report = corr.kw_symmetric(corr.SymmetricModel(args.p, args.c),
                               strict=args.strict)
    _print_report_line(report)
    if args.out:
        io.save_kw_report(args.out, report)
        print(f"wrote {args.out}")
    return 0


def cmd_kw_correlators(args) -> int:
    from . import correlations as corr
    table = corr.apply_sign_map(io.load_correlators(args.table), args.sign_map)
    model = corr.extract_pc(table)
    report = corr.kw_from_correlators(table, samples=args.samples, seed=args.seed)
    print(f"extracted model: p={_g(model.p)} c={_g(model.c)}")
    _print_report_line(report)
    print(f"draws clipped to the physical domain: {_g(report.clipped_frac)}")
    if args.out:
        io.save_kw_report(args.out, report)
        print(f"wrote {args.out}")
    return 0


def _report_text(args) -> str:
    from . import correlations as corr, tomography
    lines = []
    say = lines.append
    say("dicke resource reproduction report")
    say("==================================")
    say(f"parameters: seed={args.seed} mean_counts={args.counts} "
        f"bootstrap={args.bootstrap} samples={args.samples}")
    say("")

    say("[source state and circuit]")
    xi = states.ket_xi()
    for idx in (0b0001, 0b0010, 0b1101):
        say(f"  source amplitude |{idx:04b}> = {_g(xi[idx].real)}")
    t0 = time.perf_counter()
    out = states.circuit_to_dicke(xi)
    elapsed = time.perf_counter() - t0
    d42 = states.dicke(4, 2)
    say(f"  circuit overlap with dicke(4,2): {_g(abs(np.vdot(d42, out)) ** 2)}"
        f"  ({elapsed * 1e3:.3f} ms)")
    say("")

    say("[projective reductions of dicke(4,2)]")
    for j, name in enumerate(qmat.QUBIT_NAMES):
        for outcome, partner in ((0, states.dicke(3, 2)), (1, states.dicke(3, 1))):
            post, prob = states.reduce_state(d42, [(j, outcome)])
            fid = qmat.fidelity_pure(partner, post)
            k = 2 - outcome
            say(f"  {name}={outcome}: probability {_g(prob)}, "
                f"fidelity to w{k} = {_g(fid)}")
    for cd in ((2, 0, 3, 1), (2, 1, 3, 0)):
        post, prob = states.reduce_state(d42, [(cd[0], cd[1]), (cd[2], cd[3])])
        fid = qmat.fidelity_pure(states.psi_plus(), post)
        say(f"  c={cd[1]},d={cd[3]}: probability {_g(prob)}, "
            f"fidelity to psi-plus = {_g(fid)}")
    post, prob = states.reduce_state(d42, [(0, 1), (2, 0), (3, 1)])
    pops = np.abs(post) ** 2
    say(f"  a=1,c=0,d=1: probability {_g(prob)}, "
        f"qubit-b populations ({_g(pops[0])}, {_g(pops[1])})")
    say("")

    say("[white-noise resource model]")
    p_mix = 0.765
    noisy = states.noisy_dicke(p_mix)
    say(f"  mixing parameter p = {p_mix}")
    say(f"  fidelity to dicke(4,2): {_g(qmat.fidelity_pure(d42, noisy))}")
    w_noisy, prob = states.reduce_state(noisy, [(3, 1)])
    model = corr.extract_pc(corr.correlator_table(w_noisy))
    say(f"  projection d=1: probability {_g(prob)}, "
        f"extracted (p, c) = ({_g(model.p)}, {_g(model.c)})")
    say("")

    say("[monogamy balance: pure single-excitation state]")
    w1_ket = states.dicke(3, 1)
    w1 = qmat.dm(w1_ket)
    r = corr.kw_exact(w1, "b|a,c")
    say(f"  exact {r.assignment}: S={_g(r.S)} J={_g(r.J)} E={_g(r.E)} "
        f"KW={_g(r.KW)} theta*={_g(r.theta_opt)}")
    rs = corr.kw_symmetric(corr.SymmetricModel(1 / 3, 1 / 3))
    say(f"  closed form (p=c=1/3): S={_g(rs.S)} J={_g(rs.J)} E={_g(rs.E)} "
        f"KW={_g(rs.KW)}")
    say("")

    say("[monogamy balance: measured correlator table]")
    ref = corr.REFERENCE_CORRELATOR_TABLE
    for row in zip(ref.paulis, ref.values.tolist(), ref.sigmas.tolist()):
        say("  {} = {} +/- {}".format(*row))
    table = corr.apply_sign_map(ref, "ideal-w1")
    mt = corr.extract_pc(table)
    rt = corr.kw_from_correlators(table, samples=args.samples, seed=args.seed)
    say(f"  extracted (p, c) = ({_g(mt.p)}, {_g(mt.c)})")
    say(f"  KW = {_g(rt.KW)} +/- {_g(rt.sigma)}")
    say(f"  draws clipped to the physical domain: {_g(rt.clipped_frac)}")
    say("")

    say("[monogamy balance: white-noise model, projected]")
    reports, average = corr.kw_all_permutations(w_noisy)
    kws = sorted({round(r.KW, 9) for r in reports})
    say(f"  exact per assignment: {', '.join(_g(k) for k in kws)}"
        f" (six assignments); average {_g(average)}")
    rm = corr.kw_symmetric(corr.clip_to_domain(model.p, model.c))
    say(f"  closed-form route (p={_g(model.p)}, c={_g(model.c)}): "
        f"KW = {_g(rm.KW)}")
    say("")

    say("[tomography round trip]")
    settings = tomography.settings_full(3)
    counts = tomography.simulate_counts(w1, settings, args.counts, args.seed)
    fit = tomography.mle_reconstruct(counts)
    say(f"  w1 at mean {args.counts} counts, {len(settings)} settings: "
        f"mle fidelity = {_g(qmat.fidelity_pure(w1_ket, fit.rho))} "
        f"(iterations {fit.iterations}, converged {fit.converged})")
    bell = qmat.dm(states.psi_plus())
    bell_counts = tomography.simulate_counts(
        bell, tomography.settings_full(2), 200, args.seed + 1)
    mean, sigma = tomography.bootstrap_fidelity(
        bell_counts, states.psi_plus(), n_boot=args.bootstrap,
        seed=args.seed + 2)
    say(f"  psi-plus at mean 200 counts: bootstrap fidelity = "
        f"{_g(mean)} +/- {_g(sigma)}")
    say("")

    say("[end-to-end correlator pipeline]")
    noisy_counts = tomography.simulate_counts(w_noisy, settings, args.counts,
                                              args.seed)
    measured = tomography.correlators_from_counts(noisy_counts, corr.kw_correlator_paulis())
    rp = corr.kw_from_correlators(measured, samples=args.samples, seed=args.seed)
    say(f"  noisy projection, simulated counts -> correlators -> KW = "
        f"{_g(rp.KW)} +/- {_g(rp.sigma)}")
    say(f"  draws clipped to the physical domain: {_g(rp.clipped_frac)}")
    say(f"  exact-table reference: KW = {_g(rm.KW)}")
    return "\n".join(lines)


def cmd_report(args) -> int:
    text = _report_text(args)
    print(text)
    if args.out:
        io.atomic_write_text(args.out, text + "\n")
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickekw",
        description="Dicke-state engineering, counting tomography, and "
                    "monogamy-of-correlations analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="emit a named state as a density-matrix file")
    p_state.add_argument("name", help="one of: " + ", ".join(states.STATE_NAMES))
    p_state.add_argument("--project", help="projections, e.g. d=1 or c=0,d=1")
    p_state.add_argument("--out", help="output density-matrix file")
    p_state.set_defaults(func=cmd_state)

    p_tomo = sub.add_parser("tomo", help="counting-tomography commands")
    tomo_sub = p_tomo.add_subparsers(dest="tomo_command", required=True)

    p_sim = tomo_sub.add_parser("simulate", help="simulate Poissonian counts")
    p_sim.add_argument("--in", dest="infile", required=True,
                       help="input density-matrix file")
    p_sim.add_argument("--counts", type=float, default=10000,
                       help="mean events per outcome-set (default 10000)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", help="output counts file")
    p_sim.set_defaults(func=cmd_tomo_simulate)

    p_rec = tomo_sub.add_parser("reconstruct", help="reconstruct a state from counts")
    p_rec.add_argument("--counts", required=True, help="input counts file")
    p_rec.add_argument("--method", choices=("mle", "linear"), default="mle")
    p_rec.add_argument("--target", help="pure-state density-matrix file to score against")
    p_rec.add_argument("--bootstrap", type=int, default=0,
                       help="bootstrap replicas for the fidelity error bar")
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--out", help="output density-matrix file")
    p_rec.set_defaults(func=cmd_tomo_reconstruct)

    p_kw = sub.add_parser("kw", help="monogamy-balance evaluations")
    kw_sub = p_kw.add_subparsers(dest="kw_command", required=True)

    p_exact = kw_sub.add_parser("exact", help="exact evaluation of a three-qubit state")
    p_exact.add_argument("--in", dest="infile", required=True)
    p_exact.add_argument("--assignment", default="b|a,c",
                         help='measurement split, e.g. "b|a,c" (default)')
    p_exact.add_argument("--all-permutations", action="store_true")
    p_exact.add_argument("--out", help="output report file")
    p_exact.set_defaults(func=cmd_kw_exact)

    p_sym = kw_sub.add_parser("symmetric", help="closed forms of the symmetric model")
    p_sym.add_argument("--p", type=float, required=True)
    p_sym.add_argument("--c", type=float, required=True)
    p_sym.add_argument("--strict", action="store_true",
                       help="require the pure-model normalization 3p = 1")
    p_sym.add_argument("--out", help="output report file")
    p_sym.set_defaults(func=cmd_kw_symmetric)

    p_corr = kw_sub.add_parser("correlators",
                               help="estimate from a measured correlator table")
    p_corr.add_argument("--table", required=True, help="correlator CSV file")
    p_corr.add_argument("--sign-map", choices=("raw", "ideal-w1"),
                        default="ideal-w1")
    p_corr.add_argument("--samples", type=int, default=2000)
    p_corr.add_argument("--seed", type=int, default=0)
    p_corr.add_argument("--out", help="output report file")
    p_corr.set_defaults(func=cmd_kw_correlators)

    p_rep = sub.add_parser("report", help="full reproduction report")
    p_rep.add_argument("--seed", type=int, default=42)
    p_rep.add_argument("--counts", type=float, default=10000)
    p_rep.add_argument("--bootstrap", type=int, default=100)
    p_rep.add_argument("--samples", type=int, default=2000)
    p_rep.add_argument("--out", help="output text file")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
