"""Command-line frontend: basis inspection, module builds, singular-vector
search, classification sweeps, composition, duality and certificates.

Exit codes: 0 success / no anomaly, 1 usage error, 2 ANOMALY found,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fmodules, sl5, uminus, verma

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANOMALY = 2
EXIT_VERIFY = 3


# lowest accepted value of each integer option, per command
_MINIMA = {
    "dim-u": {"degree": 0},
    "singular": {"degree": 1},
    "classify": {"degree": 1, "max_entry": 0, "threads": 1},
    "compose": {"m": 0, "n": 0},
    "dual": {"m": 0, "n": 0},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_weight(text: str) -> tuple:
    """The 4 integers a,b,c,d of text; ValueError naming text otherwise."""
    parts = text.split(",")
    if len(parts) == 4:
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            pass
    raise ValueError(f"weight must be 4 integers a,b,c,d: {text!r}")


def parse_tuple(text: str) -> tuple:
    """Index tuples as comma-joined two-digit pairs, e.g. "21,13,45,25"."""
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if len(part) != 2 or not part.isdigit():
            raise ValueError(f"bad pair {part!r}: want two digits like 21")
        i, j = int(part[0]), int(part[1])
        if not (1 <= i <= 5 and 1 <= j <= 5):
            raise ValueError(f"pair indices must be in [5]: {part!r}")
        pairs.append((i, j))
    return tuple(pairs)


def build_parser() -> _Parser:
    p = _Parser(prog="e510", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("omega", help="expand omega_I in PBW normal form")
    sp.add_argument("tuple", help='index tuple, e.g. "21,13,45,25"')
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--latex", action="store_true")

    sp = sub.add_parser("dim-u", help="dimension and basis layout of (U_-)_d")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("irrep", help="build an irreducible sl5-module")
    sp.add_argument("--lambda", dest="lam", required=True, metavar="a,b,c,d")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("singular", help="search singular vectors in M(mu)")
    sp.add_argument("--mu", required=True, metavar="a,b,c,d")
    sp.add_argument("--degree", type=int, default=1)
    sp.add_argument("--out", default=None, help="directory for certificates")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--verify", action="store_true",
                    help="re-read and re-verify emitted certificates")

    sp = sub.add_parser("classify", help="sweep dominant weights in a box")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--max-entry", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--verify", action="store_true")

    for name, help_ in (("compose", "build a catalogued morphism chain"),
                        ("dual", "dual of a catalogued morphism chain")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--chain", required=True, choices=list(verma.CHAINS))
        sp.add_argument("--m", type=int, default=0)
        sp.add_argument("--n", type=int, default=0)
        sp.add_argument("--json", action="store_true")
        if name == "compose":
            sp.add_argument("--latex", action="store_true")

    sp = sub.add_parser("verify", help="re-verify certificate files")
    sp.add_argument("files", nargs="+")
    return p


def cmd_omega(args) -> int:
    try:
        I = parse_tuple(args.tuple)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    w = uminus.omega(I)
    if args.json:
        print(json.dumps(uminus.uelement_to_obj(w)))
    elif args.latex:
        print(uminus.latex_uelement(w))
    else:
        print(uminus.format_uelement(w))
    return EXIT_OK


def cmd_dim_u(args) -> int:
    d = args.degree
    layout = [{"dels": k, "pairs": npairs, "count": count}
              for k, npairs, count in uminus.pbw_layout(d)]
    total = sum(row["count"] for row in layout)
    if args.json:
        print(json.dumps({"degree": d, "dimension": total, "layout": layout}))
    else:
        print(f"dim (U_-)_{d} = {total}")
        for row in layout:
            print(f"  {row['count']:6d} monomials with {row['dels']} del factors")
    return EXIT_OK


def cmd_irrep(args) -> int:
    try:
        lam = fmodules.check_module_weight(parse_weight(args.lam))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    mod = verma.get_module(lam)
    mults = {}
    for idx in range(mod.dim):
        nu = mod.weight_of(idx)
        mults[nu] = mults.get(nu, 0) + 1
    if args.json:
        print(json.dumps({
            "highest_weight": list(lam),
            "dimension": mod.dim,
            "weights": [{"weight": list(nu), "multiplicity": k}
                        for nu, k in sorted(mults.items())],
        }))
    else:
        print(f"F{lam}: dimension {mod.dim} "
              f"(Weyl formula {sl5.weyl_dimension(lam)}), "
              f"{len(mults)} weight spaces")
    return EXIT_OK


def _write_certs(rows, out_dir, d):
    paths = []
    for row in rows:
        for i, w in enumerate(row.vectors):
            cert = verma.make_certificate(row.mu, row.lam, d, w, row.family)
            name = "cert_mu{}_lam{}_d{}_{}.json".format(
                "".join(map(str, row.mu)), "".join(map(str, row.lam)), d, i)
            path = os.path.join(out_dir, name)
            with open(path, "w") as fh:
                json.dump(cert, fh, indent=1, sort_keys=True)
            paths.append(path)
    return paths


def _emit_certs(rows, args, d, report: bool) -> bool:
    """Write the certificates of rows under --out and, with --verify, re-read
    and re-verify each; False on the first verification failure.  Under
    --json the "wrote" and "verified" lines go to stderr, so that stdout is
    the one JSON document."""
    log = sys.stderr if args.json else sys.stdout
    paths = _write_certs(rows, args.out, d) if args.out else []
    for path in paths:
        print(f"wrote {path}", file=log)
    if not args.verify:
        return True
    for path in paths:
        with open(path) as fh:
            ok, diag = verma.verify_certificate(json.load(fh))
        if not ok:
            print(f"VERIFY FAIL {path}: {diag}", file=sys.stderr)
            return False
    if report and paths:
        print(f"verified {len(paths)} certificate(s)", file=log)
    return True


def cmd_singular(args) -> int:
    try:
        mu = fmodules.check_module_weight(parse_weight(args.mu))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    d = args.degree
    rows = verma.classify_mu(mu, d)
    hits = sum(r.dimension for r in rows)
    if args.json:
        print(json.dumps({"mu": list(mu), "degree": d, "hits": hits,
                          "rows": [{"lambda": list(r.lam), "dim": r.dimension,
                                    "family": r.family} for r in rows]}))
    else:
        print(f"M{mu} degree {d}: {hits} singular line(s)")
        for r in rows:
            print(f"  lambda={r.lam} dim={r.dimension} family={r.family}")
    if not _emit_certs(rows, args, d, report=True):
        return EXIT_VERIFY
    return EXIT_OK


def _classify_table(rows):
    lines = [f"{'mu':>14} {'lambda':>14} {'dim':>4}  family"]
    for r in rows:
        lines.append(f"{str(r.mu):>14} {str(r.lam):>14} {r.dimension:>4}  {r.family}")
    return "\n".join(lines)


def cmd_classify(args) -> int:
    d, box = args.degree, args.max_entry
    try:  # before the box is enumerated: its largest weight has every entry box
        fmodules.check_module_weight((box,) * 4)
    except ValueError as exc:
        print(f"error: --max-entry: {exc}", file=sys.stderr)
        return EXIT_USAGE
    mus = sl5.dominant_weights_in_box(box)
    workers = min(args.threads, len(mus), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            chunks = pool.starmap(verma.classify_mu, [(mu, d) for mu in mus])
    else:
        chunks = [verma.classify_mu(mu, d) for mu in mus]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.mu, r.lam))
    anomalies = [r for r in rows if r.family == "ANOMALY"]
    if args.json:
        print(json.dumps({
            "degree": d, "max_entry": box,
            "rows": [{"mu": list(r.mu), "lambda": list(r.lam),
                      "dim": r.dimension, "family": r.family} for r in rows],
            "anomalies": len(anomalies),
        }))
    else:
        print(_classify_table(rows))
        print(f"{len(rows)} hit(s), {len(anomalies)} anomaly(ies)")
    if not _emit_certs(rows, args, d, report=False):
        return EXIT_VERIFY
    return EXIT_ANOMALY if anomalies else EXIT_OK


def _morphism_report(phi, as_json: bool, latex: bool = False) -> bool:
    """Print phi with the verdict of check_morphism, and return the verdict."""
    ok, diag = verma.check_morphism(phi)
    lt = verma.morphism_leading_term(phi)
    lt_u: dict = {}
    for (m, _idx), c in lt.terms.items():
        lt_u[m] = lt_u.get(m, 0) + c
    if as_json:
        print(json.dumps({
            "lambda": list(phi.lam), "mu": list(phi.mu),
            "degree": phi.degree, "zero": phi.is_zero(),
            "check_morphism": ok, "diagnostics": diag,
            "leading_term": uminus.uelement_to_obj(lt_u),
            "tag": phi.tag,
        }))
    else:
        print(f"M{phi.lam} -> M{phi.mu}, degree {phi.degree}"
              + (f" [{phi.tag}]" if phi.tag else ""))
        print(f"  zero: {phi.is_zero()}; check_morphism: {ok} ({diag})")
        if latex:
            print(f"  leading term: {uminus.latex_uelement(lt_u)}")
        else:
            print(f"  leading term: {uminus.format_uelement(lt_u)}")
    return ok


def _chain(args):
    """The catalogued chain that --chain, --m and --n name, or None after
    printing why there is none."""
    try:
        return verma.family_instance(args.chain, args.m, args.n)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_compose(args) -> int:
    phi = _chain(args)
    if phi is None:
        return EXIT_USAGE
    _morphism_report(phi, args.json, args.latex)
    return EXIT_OK


def cmd_dual(args) -> int:
    phi = _chain(args)
    if phi is None:
        return EXIT_USAGE
    ok = _morphism_report(verma.dual_morphism(phi), args.json)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify(args) -> int:
    bad = 0
    for path in args.files:
        try:
            with open(path) as fh:
                cert = json.load(fh)
        # ValueError: not UTF-8, not JSON or an integer too long to convert
        except (OSError, ValueError, RecursionError) as exc:
            print(f"error reading {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            ok, diag = verma.verify_certificate(cert)
        except ValueError as exc:  # a weight beyond what a module can hold
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"{path}: {'ok' if ok else 'FAIL: ' + diag}")
        if not ok:
            bad += 1
    return EXIT_VERIFY if bad else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for dest, low in _MINIMA.get(args.command, {}).items():
        if getattr(args, dest) < low:
            opt = "--" + dest.replace("_", "-")
            print(f"error: {opt} must be >= {low}, got {getattr(args, dest)}",
                  file=sys.stderr)
            return EXIT_USAGE
    if getattr(args, "out", None):
        try:  # before any search, so a bad --out costs no sweep
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"error: --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    handler = {
        "omega": cmd_omega,
        "dim-u": cmd_dim_u,
        "irrep": cmd_irrep,
        "singular": cmd_singular,
        "classify": cmd_classify,
        "compose": cmd_compose,
        "dual": cmd_dual,
        "verify": cmd_verify,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
