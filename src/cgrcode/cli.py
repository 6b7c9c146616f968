"""Command-line front end: generate, verify, roundtrip, metrics, dual,
contract, and search over the JSON interchange format.

Exit codes: 0 success (all requested verifications passed), 1 verification
or recovery failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import codespec
from .code import (
    ErasurePattern,
    UnrecoverableError,
    decode,
    decode_complexity,
    dual_verdict,
    encode,
    erase,
    update_complexity,
    verify_contracted_mds,
    verify_mds,
)
from .graph import POS_INF, CgrParams, pif_factorize
from .layout import (
    KINDS,
    CodeArray,
    ContractShapeError,
    build_code_array,
    cell_members,
    contract,
    derive_offsets,
    dualize,
    require_buildable,
)
from .rng import Lcg
from .search import (
    BUILTIN_VECTORS,
    DEFAULT_BUDGET,
    BudgetExceededError,
    SearchSpec,
    params_for_offset_length,
    search,
)


def render_cell(members) -> str:
    """A cell's members joined by ⊕, or - for an empty cell."""
    return " ⊕ ".join(map(str, members)) or "-"


def render_array_text(array: CodeArray) -> str:
    """A header line (a contracted array's source columns, else its offset
    vector), then one tab-separated line of cells per row."""
    if array.source_columns is None:
        lines = ["offset vector: " + ",".join(map(str, array.offsets))]
    else:
        lines = ["source columns: " + ",".join(map(str, array.source_columns))]
    v2 = array.params.v2
    lines += ["\t".join(render_cell(cell_members(m, v2)) for m in row) for row in array.masks]
    return "\n".join(lines) + "\n"


def mask_records(grid, v2: int) -> list[list[dict]]:
    """The JSON records of a mask grid's rows, or of its columns given
    zip(*masks): {"kind": ..., "vertices": cell_members(mask, v2)} per cell."""
    members = [[cell_members(m, v2) for m in line] for line in grid]
    return [[{"kind": KINDS[min(len(ms), 2)], "vertices": ms} for ms in line] for line in members]


def _flag_int(part: str, flag: str, text: str, base: int = 10) -> int:
    """int(part, base), or a ValueError naming the flag, its value and the entry."""
    try:
        return int(part, base)
    except ValueError:
        kind = "a hex integer" if base == 16 else "an integer"
        raise ValueError(f"bad {flag} {text!r}: {part!r} is not {kind}") from None


def _csv_ints(text: str, flag: str) -> list[int]:
    stripped = text.strip()
    if not stripped:
        return []
    return [_flag_int(part, flag, text) for part in stripped.split(",")]


def _parse_placement(text: str):
    if not text.strip():
        return ()  # pif_factorize rejects it as no bijection
    items = []
    for part in text.split(","):
        part = part.strip()
        if part in ("inf", "+inf"):
            items.append(POS_INF)
        else:
            items.append(_flag_int(part, "--placement", text))
    return tuple(items)


def _parse_data_spec(text: str) -> tuple[str, int]:
    text = text.strip()
    if text.startswith("hex:"):
        return "hex", _flag_int(text[4:] or "0", "--data", text, 16)
    match = re.fullmatch(r"random(?::(-?\d+)|\((-?\d+)\))", text)
    if match:
        return "random", int(match.group(1) or match.group(2))
    raise ValueError(f"bad --data {text!r}; use hex:<digits> or random:<seed>")


def _info_bits(array: CodeArray, data_spec: str) -> dict[int, int]:
    mode, value = _parse_data_spec(data_spec)
    ids = array.info_ids()
    if mode == "hex":
        if not 0 <= value < 1 << len(ids):
            raise ValueError(f"--data hex value does not fit the code's {len(ids)} info bits")
        return {v: (value >> i) & 1 for i, v in enumerate(ids)}
    rng = Lcg(value)
    return {v: rng.bit() for v in ids}


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, output: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", output)


def _emit_array(array: CodeArray, args) -> int:
    text = render_array_text(array) if args.format == "text" else codespec.to_json(array)
    _emit(text, args.output)
    return 0


def _load_primal(path: str) -> CodeArray:
    array = codespec.load(path)
    if array.is_dual():
        raise ValueError(f"{path} holds a dual array; this command needs a primal one")
    return array


def _builtin(name: str, choices: str = "") -> tuple[CgrParams, tuple[int, ...]]:
    """The params and offsets of a built-in vector; an unknown name raises
    ValueError listing the names, then choices."""
    if name not in BUILTIN_VECTORS:
        raise ValueError(f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_VECTORS)}{choices}")
    vector = BUILTIN_VECTORS[name]
    return params_for_offset_length(len(vector)), vector


def cmd_generate(args) -> int:
    if (args.offsets is not None or args.builtin is not None) and (
        args.placement is not None or args.pi is not None
    ):
        raise ValueError("--placement and --pi apply only to --pif, not --offsets or --builtin")
    if args.offsets is not None:
        if args.v1 is None:
            raise ValueError("--offsets needs --v1")
        params = CgrParams.from_v1(args.v1)
        vector = _csv_ints(args.offsets, "--offsets")
    elif args.builtin is not None:
        params, vector = _builtin(args.builtin)
        if args.v1 is not None and args.v1 != params.v1:
            raise ValueError(f"builtin {args.builtin} has v1={params.v1}, not {args.v1}")
    else:
        if args.v1 is None:
            raise ValueError("--v1 is required")
        params = CgrParams.from_v1(args.v1)
        require_buildable(params)  # before pif_factorize, so a huge v1 fails fast
        placement = _parse_placement(args.placement) if args.placement is not None else None
        pi = tuple(_csv_ints(args.pi, "--pi")) if args.pi is not None else None
        vector = derive_offsets(pif_factorize(params.v1, placement), pi)
    return _emit_array(build_code_array(params, vector), args)


def _verify_one(name: str, array: CodeArray) -> dict:
    primal = verify_mds(array)
    dual = dual_verdict(primal, array.num_columns)
    return {
        "name": name,
        "v1": array.params.v1,
        "v2": array.params.v2,
        "mds": primal.is_mds,
        "witness": sorted(primal.witness.erased_columns) if primal.witness else None,
        "patterns_checked": primal.patterns_checked,
        "pairs_swept": primal.pairs_swept,
        "dual_mds": dual.is_mds,
        "dual_witness": sorted(dual.witness.erased_columns) if dual.witness else None,
        "dual_patterns_checked": dual.patterns_checked,
    }


def cmd_verify(args) -> int:
    targets: list[tuple[str, CodeArray]] = []
    if args.file is not None and args.builtin is not None:
        raise ValueError("give either a file or --builtin, not both")
    if args.file is not None:
        targets.append((args.file, _load_primal(args.file)))
    elif args.builtin is not None:
        names = list(BUILTIN_VECTORS) if args.builtin == "all" else [args.builtin]
        for name in names:
            targets.append((name, build_code_array(*_builtin(name, " or all"))))
    else:
        raise ValueError("give a code file or --builtin NAME")

    results = [_verify_one(name, array) for name, array in targets]
    if args.json:
        _emit_json({"results": results}, None)
    else:
        for res in results:
            parts = [f"mds={'true' if res['mds'] else 'false'}"]
            if res["witness"] is not None:
                parts.append("witness=" + ",".join(str(c) for c in res["witness"]))
            parts.append(f"dual_mds={'true' if res['dual_mds'] else 'false'}")
            if res["dual_witness"] is not None:
                parts.append("dual_witness=" + ",".join(str(c) for c in res["dual_witness"]))
            print(f"{res['name']}: " + " ".join(parts))
    return 0 if all(r["mds"] and r["dual_mds"] for r in results) else 1


def cmd_roundtrip(args) -> int:
    array = _load_primal(args.file)
    pattern = ErasurePattern.of(_csv_ints(args.erase, "--erase"))
    info_bits = _info_bits(array, args.data)
    codeword = encode(array, info_bits)
    grid = erase(codeword, pattern)
    report = decode(array, grid, pattern)
    match = report.recovered == info_bits
    complexity = decode_complexity(report, array.params, pattern)
    if args.json:
        _emit_json(
            {
                "match": match,
                "erased_columns": sorted(pattern.erased_columns),
                "peeling_sufficed": report.peeling_sufficed,
                "xor_count": report.xor_count,
                "elimination_xor_count": report.elimination_xor_count,
                "decode_complexity": str(complexity),
            },
            None,
        )
    else:
        print(f"match: {'true' if match else 'false'}")
        print(f"peeling_sufficed: {'true' if report.peeling_sufficed else 'false'}")
        print(f"xor_count: {report.xor_count}")
        print(f"elimination_xor_count: {report.elimination_xor_count}")
        print(f"decode_complexity: {complexity}")
    return 0 if match else 1


def _measured_decode_complexity(params: CgrParams):
    """Worst single-column decode on the canonical construction for v1,
    read off column 0 alone. The array is built (CodeArray.built), so
    column c + 1 is column c with every ring turned one position, and the
    erasure of any column is that of column 0 relabelled. It seeds as many
    values, peels as many (peeling stops at the same closure in any order)
    and rebuilds as many cells, so every column gives the same xor_count."""
    array = build_code_array(params, derive_offsets(pif_factorize(params.v1)))
    codeword = encode(array, {v: 0 for v in array.info_ids()})
    pattern = ErasurePattern.of([0])
    report = decode(array, erase(codeword, pattern), pattern)
    return decode_complexity(report, params, pattern)


def cmd_metrics(args) -> int:
    lo, _, hi = args.v1_range.partition(":")
    start, stop = (_flag_int(part, "--v1-range", args.v1_range) for part in (lo, hi or lo))
    if start % 2 or start < 2:
        raise ValueError(f"--v1-range must start at an even v1 >= 2, got {start}")
    if stop < start:
        raise ValueError(f"--v1-range {args.v1_range} is empty: {stop} < {start}")
    # Text rows are printed as they are built, so a size that fails (exit 2)
    # still leaves the finished rows on stdout; --json emits one object.
    rows = []
    for v1 in range(start, stop + 1, 2):
        params = CgrParams.from_v1(v1)
        require_buildable(params)  # before pif_factorize, as generate does
        row = {
            "v1": v1,
            "v2": params.v2,
            "code": [params.v2, 2],
            "update_complexity": str(update_complexity(params)),
            "decode_complexity": str(_measured_decode_complexity(params)),
        }
        if args.json:
            rows.append(row)
        else:
            print(
                f"v1={row['v1']} v2={row['v2']} code=({row['code'][0]},{row['code'][1]}) "
                f"update_complexity={row['update_complexity']} "
                f"decode_complexity={row['decode_complexity']}",
                flush=True,
            )
    if args.json:
        _emit_json({"metrics": rows}, None)
    return 0


def cmd_dual(args) -> int:
    return _emit_array(dualize(codespec.load(args.file)), args)


CONTRACT_FORMAT_VERSION = "1"  # not a code file: codespec refuses it as a contract document


def cmd_contract(args) -> int:
    array = _load_primal(args.file)
    order = _csv_ints(args.order, "--order") if args.order is not None else None
    contracted = contract(array, order)
    ok = verify_contracted_mds(contracted)
    if args.format == "text":
        text = render_array_text(contracted)
        text += f"mds: {'true' if ok else 'false'}\n"
        _emit(text, args.output)
    else:
        _emit_json(
            {
                "version": CONTRACT_FORMAT_VERSION,
                "v1": contracted.params.v1,
                "v2": contracted.params.v2,
                "source_columns": list(contracted.source_columns),
                "mds": ok,
                "columns": mask_records(zip(*contracted.masks), contracted.params.v2),
            },
            args.output,
        )
    return 0 if ok else 1


DEFAULT_MAX_TRIALS = 1000


def cmd_search(args) -> int:
    # A flag the strategy would ignore is refused; absent flags keep their defaults.
    if args.strategy == "random" and args.budget is not None:
        raise ValueError("--budget applies only to --strategy exhaustive")
    if args.strategy == "exhaustive" and (args.seed is not None or args.max_trials is not None):
        raise ValueError("--seed and --max-trials apply only to --strategy random")
    params = CgrParams.from_v1(args.v1)
    spec = SearchSpec(
        params=params,
        fix_prefix=not args.free_prefix,
        strategy=args.strategy,
        seed=0 if args.seed is None else args.seed,
        max_trials=DEFAULT_MAX_TRIALS if args.max_trials is None else args.max_trials,
        stop_after=args.stop_after,
    )
    vectors, stats = search(spec, DEFAULT_BUDGET if args.budget is None else args.budget)
    if args.json:
        _emit_json(
            {
                "trials": stats.trials,
                "hits": stats.hits,
                "space": stats.space,
                "nodes": stats.nodes,
                "vectors": [list(vec) for vec in vectors],
            },
            None,
        )
    else:
        print(f"trials: {stats.trials}")
        print(f"hits: {stats.hits}")
        if stats.space is not None:
            print(f"space: {stats.space}")
        for vec in vectors:
            print("vector: " + ",".join(str(a) for a in vec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgrcode",
        description="Construct, verify, and transform XOR-based MDS array erasure codes "
        "built on complete graphs of rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a code array as JSON or a text grid")
    p.add_argument("--v1", type=int, help="number of rings (even, >= 2)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--pif", action="store_true", help="derive offsets from a perfect one-factorization (default)")
    group.add_argument("--offsets", help="explicit comma-separated offset vector")
    group.add_argument("--builtin", help="named built-in offset vector")
    p.add_argument("--placement", help="cycle placement for --pif, e.g. 0,1,2,3,inf")
    p.add_argument("--pi", help="offset assignment permutation for --pif, e.g. 1,3,0,2")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", help="write to file instead of stdout")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check the MDS property (and the dual's) for every erased pair")
    p.add_argument("file", nargs="?", help="code JSON file")
    p.add_argument("--builtin", help="named built-in vector, or 'all'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roundtrip", help="encode, erase columns, decode, compare")
    p.add_argument("file", help="code JSON file")
    p.add_argument("--erase", default="", help="comma-separated column indices")
    p.add_argument("--data", default="random:0", help="hex:<digits> or random:<seed>")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("metrics", help="update/decode complexity per configuration")
    p.add_argument("--v1-range", default="2:10", help="inclusive range lo:hi, step 2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("dual", help="swap vertex/edge roles of an array")
    p.add_argument("file", help="code JSON file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", help="write to file instead of stdout")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("contract", help="reduce a code array to its contracted low-density form")
    p.add_argument("file", help="code JSON file")
    p.add_argument("--order", help="presentation order of source columns, comma-separated")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", help="write to file instead of stdout")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("search", help="search for valid offset vectors")
    p.add_argument("--v1", type=int, required=True)
    p.add_argument("--free-prefix", action="store_true", help="search all entries, not just inter-ring ones")
    p.add_argument("--strategy", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--seed", type=int, help="random only (default 0)")
    p.add_argument("--max-trials", type=int, help=f"random only (default {DEFAULT_MAX_TRIALS})")
    p.add_argument("--stop-after", type=int, default=None)
    p.add_argument(
        "--budget", type=int, help=f"exhaustive only: max candidates covered (default {DEFAULT_BUDGET})"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnrecoverableError, ContractShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
