"""Command-line front end: reads input files and flags, prints JSON reports
and maps errors to exit codes.  Every computation, every comparison of
paired routes and the weight -> unit rule live in the library; a command
only parses, calls it and reports.

Exit status: 0 on success, 2 on a mathematical refusal (a ``Refusal``: a
precondition such as girth or genericity fails, with the reason in the
report), 1 on other input errors.  A Disagreement between paired computation paths, raised by the
library, is a bug and is allowed to crash loudly.

All reports are deterministic JSON on stdout; scalars are serialized exactly
as strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import inf

from .arrangement import Arrangement, Character, InvalidCharacter
from .chain import FreeChainComplex, _object, decide_isomorphic
from .fox import GroupPresentation, alexander_complex
from .koszul import (
    UnitAssignment,
    check_generic_position,
    complete_homology_generic_position,
    generic_range_homology,
    require_agreement,
)
from .milnor import MilnorSpectrum, obstruction_report, spectrum_from_presentation
from .rings import Refusal, ring_from_string
from .tower import (
    TowerCharacter,
    TowerSpec,
    boolean_pi_rank,
    build_tower_complex,
    pi_p_presentation_fibertype,
)

SCHEMA_VERSION = 1


def _load(path):
    with open(path) as fh:
        return fh.read()


def _weights(text):
    return [int(w) for w in str(text).replace(" ", "").split(",") if w != ""]


def _character(arr, text):
    """The n+1 weights, or gamma_1..gamma_n with gamma_0 fixed by the zero
    sum: the one weight-count check of every arrangement command."""
    w = _weights(text)
    if len(w) == arr.n:
        return Character.from_tail(w)
    if len(w) != arr.n + 1:
        raise InvalidCharacter(f"need {arr.n} or {arr.n + 1} weights, got {len(w)}")
    return Character(w)


def _homology_json(entries, ring):
    return {str(q): h.describe(ring) for q, h in sorted(entries.items())}


def _presentation_json(ps):
    """The cokernel fields ``pi rank`` reports for either path."""
    return {
        "rank": ps.cokernel.free_rank,
        "invariant_factors": [ps.ring.format(d) for d in ps.cokernel.torsion],
        "matrix_shape": [ps.matrix.nrows, ps.matrix.ncols],
    }


# -- subcommand bodies ------------------------------------------------------


def cmd_arr(args):
    arr = Arrangement.from_json(_load(args.arrangement))
    if args.what == "lattice":
        flats = arr.intersection_lattice()
        return {
            "n_plus_1": arr.n + 1,
            "r": arr.r,
            "flats": [
                {"hyperplanes": sorted(f.indices), "codim": f.codim} for f in flats
            ],
        }
    if args.what == "girth":
        c = arr.girth()
        return {"girth": "inf" if c == inf else c}
    if args.what == "dense":
        return {
            "dense_edges": [
                {"hyperplanes": sorted(f.indices), "codim": f.codim}
                for f in arr.dense_edges()
            ]
        }
    if args.what == "betti":
        b = arr.betti_data()
        return {"betti": list(b.betti), "euler": b.euler}
    if args.what == "nonres":
        ch = _character(arr, args.weights)
        ok, violators = arr.is_nonresonant(ch)
        return {
            "weights": list(ch.weights),
            "nonresonant": ok,
            "violators": [sorted(f.indices) for f in violators],
        }
    raise ValueError(f"unknown arr subcommand {args.what}")


def cmd_homology_koszul(args):
    arr = Arrangement.from_json(_load(args.arrangement))
    ch = _character(arr, args.weights)
    ring = ring_from_string(args.ring)
    u = UnitAssignment.from_weights(ring, [ch[i] for i in range(1, arr.n + 1)])
    if args.full:
        res = complete_homology_generic_position(arr, u)
        return {
            "mode": "complete",
            "ring": ring.name,
            "chi": res.chi,
            "kappa": res.kappa,
            "top_degree": res.top_degree,
            "top_rank_formula": res.top_rank_formula,
            "top_rank_direct": res.top_rank_direct,
            "homology": _homology_json(res.entries, ring),
            "higher_degrees": "zero",
        }
    res = generic_range_homology(arr, u)
    return {
        "mode": "generic-range",
        "ring": ring.name,
        "girth": "inf" if res.girth == inf else res.girth,
        "valid_degrees": f"q < {res.limit}",
        "note": res.note,
        "homology": _homology_json(res.entries, ring),
    }


def cmd_homology_fox(args):
    pres = GroupPresentation.from_json(_load(args.presentation))
    ring = ring_from_string(args.ring)
    u = UnitAssignment.from_weights(ring, _weights(args.weights))
    cx = alexander_complex(pres, u.units, ring)
    return {
        "ring": ring.name,
        "ranks": list(cx.ranks),
        "homology": _homology_json({0: cx.homology(0), 1: cx.homology(1)}, ring),
    }


def cmd_homology_tower(args):
    tw, ch = _tower(args)
    if args.max_q is not None and args.max_q < 0:
        raise ValueError(f"--max-q must be nonnegative, got {args.max_q}")
    cx = build_tower_complex(tw, ch)
    max_q = cx.top if args.max_q is None else min(args.max_q, cx.top)
    tor = {q: cx.homology(q) for q in range(max_q + 1)}
    return {
        "exponents": tw.exponents[::-1],
        "poincare_coefficients": tw.poincare_coefficients(),
        "ranks": list(cx.ranks),
        "tor": _homology_json(tor, cx.ring),
    }


def _tower(args):
    """(spec, character) from one read of the tower file; --weights wins."""
    data = json.loads(_load(args.tower))
    tw = TowerSpec.from_json(data)
    named = dict(_object(data.get("weights") or {}, "weights"))
    if args.weights:
        for item in str(args.weights).split(","):
            name, _, val = item.partition("=")
            named[name.strip()] = int(val)
    return tw, TowerCharacter.from_names(tw, named)


def cmd_milnor_spectrum(args):
    pres = GroupPresentation.from_json(_load(args.presentation))
    spec = spectrum_from_presentation(pres)
    return obstruction_report(spec)


def cmd_milnor_obstruct(args):
    if args.spectrum:
        values = _weights(args.spectrum)
        n = args.n if args.n is not None else len(values) - 1
        return obstruction_report(MilnorSpectrum(n, values))
    if args.presentation is None:
        raise ValueError("milnor obstruct needs --spectrum or --presentation")
    return cmd_milnor_spectrum(args)


def cmd_pi_rank(args):
    if args.tower and args.arrangement:
        raise ValueError("pi rank takes --arrangement or --tower, not both")
    if args.tower:
        tw, ch = _tower(args)
        if args.p is None:
            raise ValueError("--p is required with --tower")
        ps = pi_p_presentation_fibertype(tw, args.p, ch)
        return {"path": "fibertype", "p": args.p, **_presentation_json(ps)}
    if args.arrangement is None:
        raise ValueError("pi rank needs --arrangement or --tower")
    if args.p is not None:
        raise ValueError("--p is taken only with --tower: --arrangement derives p = r - 1")
    arr = Arrangement.from_json(_load(args.arrangement))
    pi = boolean_pi_rank(arr, _character(arr, args.weights))
    report = {
        "path": "boolean",
        "p": pi.p,
        "rank_formula": pi.formula,
        "nonresonant": pi.nonresonant,
        **_presentation_json(pi.presentation),
    }
    if pi.nonresonant:
        report["nonresonant_formula"] = pi.nonresonant_rank
    return report


def cmd_chain_iso(args):
    c1 = FreeChainComplex.from_json(_load(args.a))
    c2 = FreeChainComplex.from_json(_load(args.b))
    verdict, report = decide_isomorphic(c1, c2)
    report["isomorphic"] = verdict
    return report


def cmd_crosscheck(args):
    arr = Arrangement.from_json(_load(args.arrangement))
    ch = _character(arr, args.weights)
    u = UnitAssignment.from_character(ch)
    check_generic_position(arr, u)  # the homology route's refusals come first
    pi = boolean_pi_rank(arr, ch)  # compares its own routes
    checks = list(pi.checks)
    if args.presentation:
        pres = GroupPresentation.from_json(_load(args.presentation))
        ring = u.ring
        ac = alexander_complex(pres, u.units, ring)
        # generic position forces r >= 3, so H_0 and H_1 are complete-homology entries
        for q in (0, 1):
            ha, hb = ac.homology(q), pi.homology[q]
            checks.append(
                {
                    "name": f"H_{q}: presentation complex vs Z^n complex",
                    "values": [ha.describe(ring), hb.describe(ring)],
                    "agree": ha == hb,
                }
            )
    return {"checks": require_agreement(checks), "all_agree": True}


# -- parser -----------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built once per process; ``parse_args``
    fills a fresh namespace on every call and leaves the parser as it was."""
    ap = argparse.ArgumentParser(
        prog="arrtwist",
        description="Exact twisted homology of hyperplane arrangement complements",
    )
    ap.add_argument(
        "--version",
        action="version",
        version=json.dumps(
            {
                "arrtwist": "0.1.0",
                "schemas": {
                    "arrangement": SCHEMA_VERSION,
                    "complex": SCHEMA_VERSION,
                    "presentation": SCHEMA_VERSION,
                    "tower": SCHEMA_VERSION,
                },
            }
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_arr = sub.add_parser("arr", help="arrangement combinatorics")
    p_arr.add_argument("what", choices=["lattice", "girth", "dense", "betti", "nonres"])
    p_arr.add_argument("--arrangement", required=True)
    p_arr.add_argument("--weights", help="gamma_0..gamma_n (or gamma_1..gamma_n)")
    p_arr.set_defaults(fn=cmd_arr)

    p_h = sub.add_parser("homology", help="twisted homology computations")
    hsub = p_h.add_subparsers(dest="flavor", required=True)
    p_hk = hsub.add_parser("koszul")
    p_hk.add_argument("--arrangement", required=True)
    p_hk.add_argument("--weights", required=True)
    p_hk.add_argument("--ring", default="laurent")
    p_hk.add_argument("--full", action="store_true")
    p_hk.set_defaults(fn=cmd_homology_koszul)
    p_hf = hsub.add_parser("fox")
    p_hf.add_argument("--presentation", required=True)
    p_hf.add_argument("--weights", required=True)
    p_hf.add_argument("--ring", default="laurent")
    p_hf.set_defaults(fn=cmd_homology_fox)
    p_ht = hsub.add_parser("tower")
    p_ht.add_argument("--tower", required=True)
    p_ht.add_argument("--weights", help="name=int,name=int,...")
    p_ht.add_argument("--max-q", type=int, dest="max_q")
    p_ht.set_defaults(fn=cmd_homology_tower)

    p_m = sub.add_parser("milnor", help="Milnor fiber spectra and obstruction")
    msub = p_m.add_subparsers(dest="flavor", required=True)
    p_ms = msub.add_parser("spectrum")
    p_ms.add_argument("--presentation", required=True)
    p_ms.set_defaults(fn=cmd_milnor_spectrum)
    p_mo = msub.add_parser("obstruct")
    p_mo.add_argument("--n", type=int)
    p_mo.add_argument("--spectrum")
    p_mo.add_argument("--presentation")
    p_mo.set_defaults(fn=cmd_milnor_obstruct)

    p_pi = sub.add_parser("pi", help="higher homotopy group presentations")
    pisub = p_pi.add_subparsers(dest="flavor", required=True)
    p_pr = pisub.add_parser("rank")
    p_pr.add_argument("--arrangement")
    p_pr.add_argument("--tower")
    p_pr.add_argument("--weights")
    p_pr.add_argument("--p", type=int)
    p_pr.set_defaults(fn=cmd_pi_rank)

    p_c = sub.add_parser("chain", help="chain complex utilities")
    csub = p_c.add_subparsers(dest="flavor", required=True)
    p_ci = csub.add_parser("iso")
    p_ci.add_argument("--a", required=True)
    p_ci.add_argument("--b", required=True)
    p_ci.set_defaults(fn=cmd_chain_iso)

    p_x = sub.add_parser("crosscheck", help="run paired computation paths")
    p_x.add_argument("--arrangement", required=True)
    p_x.add_argument("--weights", required=True)
    p_x.add_argument("--presentation")
    p_x.set_defaults(fn=cmd_crosscheck)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        report = args.fn(args)
    except (ValueError, KeyError, OSError) as e:
        print(json.dumps({"error": type(e).__name__, "reason": str(e)}, indent=2))
        return 2 if isinstance(e, Refusal) else 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
