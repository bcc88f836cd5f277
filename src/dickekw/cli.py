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

import numpy as np

from . import io, qmat, states
from .io import _g


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
    if args.out:
        io.save_density_matrix(args.out, state)
        print(f"wrote {args.out}")
    else:
        print(io.density_matrix_document(state))
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
        overlap = np.vdot(target, rho @ target).real  # fidelity_pure clips it to [0, 1]
        if not -1e-12 <= overlap <= 1 + 1e-12:
            print(f"warning: <psi|rho|psi> = {_g(overlap)} is outside [0, 1]; "
                  "the fidelity is clipped")
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


def cmd_report(args) -> int:
    from .report import report_text
    text = report_text(args)
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
