"""Command-line interface.

Subcommands mirror the pipeline stages:

    kernels    build a kernel bank from a features CSV
    learn      solve for Z from one kernel CSV
    cluster    spectral clustering of a learned Z
    ssl        label-propagation experiment on a learned Z
    eval       score a prediction file against ground truth
    benchmark  full grid run from a JSON config

Matrices are CSV without headers; structured outputs are JSON. Exit
code 2 signals a usage or data error.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .errors import DivergenceError, LinearSolveError
from .graph import cluster, require_square
from .io import dense_labels, load_dataset, read_labels, read_matrix, write_json, write_matrix
from .kernels import BANKS, build_kernel_bank
from .metrics import accuracy, nmi
from .semisupervised import DEFAULT_GAMMA, DEFAULT_REPEATS, ssl_experiment
from .solver import REGULARIZERS, SolverConfig, canonical_regularizer, diagnostics_dict, solve

# DataFormatError and DegenerateKernelError are ValueErrors
USER_ERRORS = (DivergenceError, LinearSolveError, ValueError, OSError)


def _cmd_kernels(args):
    X, _, _ = load_dataset(args.data)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec, K, fallback_used in build_kernel_bank(X, args.bank):
        write_matrix(out_dir / f"{spec.name}.csv", K)
        write_json(
            out_dir / f"{spec.name}.json",
            {
                "family": spec.family,
                "params": spec.params(),
                "normalized": True,
                "fallback_used": fallback_used,
            },
        )
        print(f"{spec.name}: wrote {out_dir / (spec.name + '.csv')}")
        # one kernel in memory at a time: dropped before the next is built, so
        # a kernel that fails leaves the files of the earlier ones complete
        del K
    return 0


def _cmd_learn(args):
    K = read_matrix(args.kernel)
    cfg = SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})
    sol = solve(K, cfg)
    write_matrix(args.out, sol.Z)
    diag_path = args.diagnostics or str(Path(args.out).with_suffix("")) + ".diagnostics.json"
    write_json(diag_path, diagnostics_dict(sol))
    print(
        f"converged={sol.converged} iterations={sol.iterations} "
        f"rel_change={sol.rel_change:.3e} -> {args.out}"
    )
    return 0


def _cmd_cluster(args):
    Z = read_matrix(args.z)
    if args.labels:
        truth = _read_labels_of(Z, args.labels)
    assignments, inertia = cluster(Z, args.classes, seed=args.seed)
    out = {
        "assignments": [int(a) for a in assignments],
        "inertia": inertia,
    }
    if args.labels:
        out["acc"] = accuracy(assignments, truth)
        out["nmi"] = nmi(assignments, truth)
    write_json(args.out, out)
    msg = f"clustered {Z.shape[0]} samples into {args.classes} groups"
    if "acc" in out:
        msg += f" (acc={out['acc']:.4f}, nmi={out['nmi']:.4f})"
    print(msg)
    return 0


def _cmd_ssl(args):
    Z = read_matrix(args.z)
    labels, _ = dense_labels(_read_labels_of(Z, args.labels))
    mean_acc, std_acc, per_repeat = ssl_experiment(
        Z,
        labels,
        args.fraction,
        repeats=args.repeats,
        gamma=args.gamma,
        seed=args.seed,
    )
    write_json(
        args.out,
        {
            "fraction": args.fraction,
            "mean_acc": mean_acc,
            "std_acc": std_acc,
            "per_repeat": per_repeat,
        },
    )
    print(
        f"fraction={args.fraction:g}: acc {mean_acc:.4f} +/- {std_acc:.4f} "
        f"over {args.repeats} repeats"
    )
    return 0


def _read_labels_of(Z, labels_path):
    """The labels in labels_path, checked to be one per row of a square Z."""
    require_square(Z)
    return read_labels(labels_path, Z.shape[0])


def _cmd_eval(args):
    pred = read_labels(args.pred)
    truth = read_labels(args.truth)
    print(json.dumps({"acc": accuracy(pred, truth), "nmi": nmi(pred, truth)}))
    return 0


def _cmd_benchmark(args):
    from .harness import run_benchmark  # the grid runner loads only with the command that runs it

    csv_path, manifest_path = run_benchmark(args.config)
    print(f"wrote {csv_path} and {manifest_path}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="similearn",
        description="similarity learning by kernel self-expression",
    )
    p.add_argument("--version", action="version", version=f"similearn {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernels", help="build a kernel bank from features")
    k.add_argument("--data", required=True, help="features CSV, one sample per row")
    k.add_argument("--bank", default="clustering12", choices=tuple(BANKS))
    k.add_argument("--out-dir", required=True)
    k.set_defaults(fn=_cmd_kernels)

    l = sub.add_parser("learn", help="learn Z from a kernel matrix")
    l.add_argument("--kernel", required=True, help="kernel CSV (n x n)")
    # choices are checked after the alias lowrank becomes low_rank
    l.add_argument(
        "--reg",
        dest="regularizer",
        required=True,
        type=canonical_regularizer,
        choices=REGULARIZERS,
    )
    for f in fields(SolverConfig):
        if f.name != "regularizer":
            l.add_argument(f"--{f.name.replace('_', '-')}", type=f.type, default=f.default)
    l.add_argument("--out", required=True, help="output CSV for Z")
    l.add_argument(
        "--diagnostics",
        default=None,
        help="output JSON path (default: <out>.diagnostics.json)",
    )
    l.set_defaults(fn=_cmd_learn)

    c = sub.add_parser("cluster", help="spectral clustering of a learned Z")
    c.add_argument("--z", required=True, help="coefficient matrix CSV")
    c.add_argument("--classes", required=True, type=int)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--labels", default=None, help="optional ground truth for metrics")
    c.add_argument("--out", required=True, help="output JSON")
    c.set_defaults(fn=_cmd_cluster)

    s = sub.add_parser("ssl", help="label propagation experiment on a learned Z")
    s.add_argument("--z", required=True)
    s.add_argument("--labels", required=True)
    s.add_argument("--fraction", type=float, default=0.1)
    s.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    s.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="output JSON")
    s.set_defaults(fn=_cmd_ssl)

    e = sub.add_parser("eval", help="score predictions against ground truth")
    e.add_argument("--pred", required=True)
    e.add_argument("--truth", required=True)
    e.set_defaults(fn=_cmd_eval)

    b = sub.add_parser("benchmark", help="full grid run from a JSON config")
    b.add_argument("--config", required=True)
    b.set_defaults(fn=_cmd_benchmark)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
