"""Command line interface.

Subcommands: table, blocks, verify, quotients, paper-table, oracle.
Exit codes: 0 all requested checks hold, 1 a checked statement is false
(the report carries a certificate), 2 usage error or bad input: the main
group maps budget, integrity, I/O, value and key errors to one `error:`
line on stderr for every subcommand.

Groups are named by their catalog key or by a path to a JSON file of the
form {"format": "perm-group", "degree": n, "order": "<decimal>",
"generators": [[1-based image lists]]}.  A declared order is always checked
against the constructed group.  Reports are emitted with sorted keys so
repeated runs produce identical bytes; group orders are written as decimal
strings.
"""

import json
import sys
from dataclasses import astuple, dataclass
from itertools import groupby
from math import lcm
from operator import itemgetter

import click

from .blocks import block_partition, defect_group
from .catalog import BUILDERS, build, rows_for_suite
from .chartab import IntegrityError, character_table, load_table, save_table
from .classfun import VirtualCharacter
from .correspondence import (PROPERTIES, blocks_of, build_induced_lattice,
                             check_property, check_property_G_with_witness,
                             correspondent_of, full_report, make_instance,
                             pair_table, quotients_q1_q2, table_for)
from .groupcore import (BudgetExceeded, conjugacy_classes, group_from_generators,
                        is_prime, json_int, normalizer, sylow_subgroup, v_p)
from .oracles import (brute_conjugacy_classes, compare_with_table,
                      definition_lattice)


@dataclass
class JobSpec:
    """Everything one verification run depends on."""

    group: str
    p: int
    subgroup_mode: str = "sylow"  # sylow | explicit:<path> | block:<shape or index>
    h_mode: str = "normalizer"  # normalizer | explicit:<path>
    properties: tuple = PROPERTIES
    table_g: str = None
    table_h: str = None
    witness: str = None


def load_group(spec_group):
    """A catalog name or a path to a perm-group JSON file."""
    if spec_group in BUILDERS:
        return build(spec_group)
    with open(spec_group) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("format") != "perm-group":
        raise IntegrityError(f"{spec_group}: not a perm-group file")
    G = group_from_generators(data)
    if "order" in data:
        declared = json_int(data["order"], f"{spec_group}: order", decimal_string=True)
        if G.order() != declared:
            raise IntegrityError(
                f"{spec_group}: declared order {data['order']} but the "
                f"generators produce a group of order {G.order()}"
            )
    return G


def _parse_abelian_shape(token):
    """'C2xC2' -> (order, exponent) for matching a defect group."""
    order, exps = 1, []
    for part in token.split("x"):
        if not part.startswith("C"):
            raise ValueError(f"cannot parse group shape {token!r}")
        n = int(part[1:])
        order *= n
        exps.append(n)
    return order, lcm(*exps)


def _pick_block(tG, p, token):
    blks = block_partition(tG, p)
    if token.isdigit():
        idx = int(token)
        for b in blks:
            if b.index == idx:
                return b
        raise ValueError(f"no block with index {token}")
    order, expo = _parse_abelian_shape(token)
    for b in blks:
        if p ** b.defect != order:
            continue
        D = defect_group(tG, b, p)
        if D.order() == order and D.exponent() == expo:
            return b
    raise ValueError(f"no block with defect group of shape {token}")


def build_instance(spec, G):
    """Construct the (G, p, P, H) instance a JobSpec describes.

    G is the group that `spec.group` names, as `load_group` returns it.
    Returns (inst, block_pair): block_pair is None unless the p-subgroup
    was chosen as the defect group of a named block, in which case the
    property checks run at that block.  A group over the class budget is
    refused here, before any subgroup search enumerates its elements.
    """
    conjugacy_classes(G)
    name = spec.group if spec.group in BUILDERS else ""
    tG = None
    if spec.table_g:
        tG = load_table(spec.table_g, G)
    b = None
    P = None
    if spec.subgroup_mode == "sylow":
        pass
    elif spec.subgroup_mode.startswith("explicit:"):
        S = load_group(spec.subgroup_mode.split(":", 1)[1])
        P = G.subgroup(list(S.generators))
        if P.order() != S.order():
            raise IntegrityError("explicit p-subgroup is not inside the group")
        if P.order() != spec.p ** v_p(P.order(), spec.p):
            raise IntegrityError(f"explicit p-subgroup has order {P.order()}, "
                                 f"not a power of {spec.p}")
    elif spec.subgroup_mode.startswith("block:"):
        if tG is None:
            tG = table_for(G)
        b = _pick_block(tG, spec.p, spec.subgroup_mode.split(":", 1)[1])
        P = defect_group(tG, b, spec.p)
    else:
        raise ValueError(f"unknown subgroup mode {spec.subgroup_mode!r}")
    if P is None:
        P = sylow_subgroup(G, spec.p)

    if spec.h_mode == "normalizer":
        H = normalizer(G, P)
    elif spec.h_mode.startswith("explicit:"):
        S = load_group(spec.h_mode.split(":", 1)[1])
        H = G.subgroup(list(S.generators))
        if H.order() != S.order():
            raise IntegrityError("explicit overgroup is not inside the group")
        if not P.is_subgroup_of(H):
            raise IntegrityError("the p-subgroup must lie in the overgroup")
    else:
        raise ValueError(f"unknown overgroup mode {spec.h_mode!r}")

    tH = None
    if spec.table_h:
        tH = load_table(spec.table_h, H)
    inst = make_instance(G, spec.p, P=P, H=H, tG=tG, tH=tH, name=name)
    block_pair = None
    if b is not None:
        e = correspondent_of(inst, b)
        if e is None:
            raise IntegrityError("the chosen block has no correspondent")
        block_pair = (b, e)
    return inst, block_pair


def emit(data, output):
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def run_verify(spec):
    """Execute a JobSpec; returns (exit_code, report dict)."""
    if not spec.properties:
        raise ValueError("--props names no property")
    wants = [w for w in spec.properties if w in PROPERTIES]
    extras = [w for w in spec.properties if w not in PROPERTIES]
    for w in extras:
        if w not in ("in", "g"):
            raise ValueError(f"unknown property {w!r}")
    inst, block_pair = build_instance(spec, load_group(spec.group))
    report = full_report(inst, props=wants, block_pair=block_pair)
    data = report.to_json()
    ok = all(v.holds for v in report.verdicts.values())
    if "in" in extras:
        ok = ok and data["ml_counts"]["equal"]
    if "g" in extras:
        if not spec.witness:
            raise ValueError("property g needs --witness")
        with open(spec.witness) as fh:
            wit = json.load(fh)
        try:
            if (wit.get("format"), wit.get("space")) != ("virtual-character", "product"):
                raise IntegrityError("witness file is not a product virtual character")
            coeffs = tuple(json_int(c, "witness coefficient") for c in wit["coeffs"])
            chars_b = sorted(json_int(i, "witness character") for i in wit["block_chars"])
            chars_e = sorted(json_int(i, "witness character")
                             for i in wit["correspondent_chars"])
        except (TypeError, AttributeError) as exc:
            raise IntegrityError(f"malformed witness data: {exc}") from exc
        mu = VirtualCharacter(pair_table(inst), coeffs)
        b = next(
            (bb for bb in blocks_of(inst, "G") if sorted(bb.char_indices) == chars_b),
            None,
        )
        if b is None:
            raise ValueError("witness block_chars name no block of G")
        e = next(
            (ee for ee in blocks_of(inst, "H") if sorted(ee.char_indices) == chars_e),
            None,
        )
        if e is None:
            raise ValueError("witness correspondent_chars name no block of H")
        holds = check_property_G_with_witness(inst, b, e, mu)
        data["verdicts"]["g"] = {
            "holds": holds,
            "witness": None,
            "certificate": None if holds else "witness fails the block transform test",
            "level": f"block:{b.index}",
        }
        ok = ok and holds
    return (0 if ok else 1), data


def evaluate_row(row, G):
    """Compute (q1, irc, q2, pieces) for one reference table row over G.

    The quotients are QuotientShapes; pieces is None unless the row lists
    per-block components, then the Q1 and the Q2 pieces as two lists.
    """
    inst, block_pair = build_instance(
        JobSpec(group=row["group"], p=row["p"], subgroup_mode=row["mode"]), G
    )
    q1, q2, per_block = quotients_q1_q2(inst)
    if block_pair is not None:
        entry = next(pb for pb in per_block if pb[0] == block_pair[0].index)
        q1, q2 = entry[1], entry[2]
    irc = check_property(inst, "irc", block_pair=block_pair).holds
    pieces = None
    if row["pieces"] is not None:
        pieces = ([a for _, a, _ in per_block], [c for _, _, c in per_block])
    return q1, irc, q2, pieces


class _Main(click.Group):
    """The command group; every subcommand shares its one error exit."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (BudgetExceeded, IntegrityError, OSError, ValueError, KeyError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


def _prime(ctx, param, value):
    """Shared check of every -p: a ValueError ends in the one error exit."""
    if value is not None and not is_prime(value):
        raise ValueError(f"-p must be a prime, got {value}")
    return value


@click.group(cls=_Main)
def main():
    """Exact induced-character lattices and correspondence checks."""


@main.command("table")
@click.argument("group")
@click.option("-o", "--output", default=None, help="write the table as JSON")
@click.option("--budget-order", default=None, type=int)
def cmd_table(group, output, budget_order):
    """Compute and check a character table."""
    G = load_group(group)
    t = character_table(G, budget_order=budget_order)
    if output:
        save_table(t, output)
    click.echo(
        f"{group}: order {t.group_order}, {t.k} classes, "
        f"degrees {sorted(t.degrees)}"
    )


@main.command("blocks")
@click.argument("group")
@click.option("-p", "--prime", required=True, type=int, callback=_prime)
@click.option("-o", "--output", default=None)
def cmd_blocks(group, prime, output):
    """List the p-blocks with defects and character degrees."""
    G = load_group(group)
    t = table_for(G)
    blks = block_partition(t, prime)
    data = {
        "group": group,
        "order": str(t.group_order),
        "p": prime,
        "blocks": [
            {
                "index": b.index,
                "defect": b.defect,
                "principal": b.principal,
                "characters": sorted(b.char_indices),
                "degrees": sorted(t.degrees[i] for i in b.char_indices),
            }
            for b in blks
        ],
    }
    if output:
        emit(data, output)
    for b in data["blocks"]:
        tag = " principal" if b["principal"] else ""
        click.echo(
            f"block {b['index']}: defect {b['defect']}, "
            f"{len(b['characters'])} characters, degrees {b['degrees']}{tag}"
        )


@main.command("verify")
@click.argument("group")
@click.option("-p", "--prime", required=True, type=int, callback=_prime)
@click.option("--props", default=",".join(PROPERTIES), show_default=True,
              help="comma list from irc,wirc,wircstar,pres,pind,in,g")
@click.option("--subgroup-mode", default="sylow", show_default=True,
              help="sylow | explicit:<path> | block:<shape or index>")
@click.option("--h-mode", default="normalizer", show_default=True,
              help="normalizer | explicit:<path>")
@click.option("--table-g", default=None, help="external table for the group")
@click.option("--table-h", default=None, help="external table for the overgroup")
@click.option("--witness", default=None, help="product virtual character JSON")
@click.option("-o", "--output", default=None)
def cmd_verify(group, prime, props, subgroup_mode, h_mode, table_g, table_h,
               witness, output):
    """Check correspondence properties; exit 0 only if all hold."""
    spec = JobSpec(
        group=group,
        p=prime,
        subgroup_mode=subgroup_mode,
        h_mode=h_mode,
        properties=tuple(w.strip() for w in props.split(",") if w.strip()),
        table_g=table_g,
        table_h=table_h,
        witness=witness,
    )
    code, data = run_verify(spec)
    emit(data, output)
    if output:
        for name, v in sorted(data["verdicts"].items()):
            state = "holds" if v["holds"] else f"FAILS ({v['certificate']})"
            click.echo(f"{name} [{v['level']}]: {state}")
    sys.exit(code)


@main.command("quotients")
@click.argument("group")
@click.option("-p", "--prime", required=True, type=int, callback=_prime)
@click.option("-o", "--output", default=None)
def cmd_quotients(group, prime, output):
    """Print the two lattice quotients and their block pieces."""
    inst, _ = build_instance(JobSpec(group, prime), load_group(group))
    q1, q2, per_block = quotients_q1_q2(inst)
    click.echo(f"Q1 = {q1}")
    click.echo(f"Q2 = {q2}")
    for idx, a, b in per_block:
        click.echo(f"block {idx}: Q1 = {a}, Q2 = {b}")
    if output:
        emit(
            {
                "group": group,
                "p": prime,
                "q1": q1.to_json(),
                "q2": q2.to_json(),
                "per_block": [
                    {"block": idx, "q1": a.to_json(), "q2": b.to_json()}
                    for idx, a, b in per_block
                ],
            },
            output,
        )


@main.command("paper-table")
@click.argument("suite", type=click.Choice(["small", "extended"]),
                default="small")
@click.option("-o", "--output", default=None)
def cmd_paper_table(suite, output):
    """Recompute the reference rows and report match or mismatch."""
    rows = rows_for_suite(suite)
    results = []
    bad = 0
    for name, same_group in groupby(rows, key=itemgetter("group")):
        G = load_group(name)  # built once for its consecutive rows
        for row in same_group:
            q1, irc, q2, pieces = evaluate_row(row, G)
            ok = (astuple(q1), irc, astuple(q2)) == (row["q1"], row["irc"], row["q2"])
            if row["pieces"] is not None:
                got = tuple([astuple(q) for q in half] for half in pieces)
                ok = ok and got == row["pieces"]
            bad += 0 if ok else 1
            state = "match" if ok else "MISMATCH"
            line = (
                f"{row['group']} p={row['p']} [{row['mode']}]: "
                f"Q1 = {q1}, IRC = {'Yes' if irc else 'No'}, "
                f"Q2 = {q2}  {state}"
            )
            click.echo(line)
            results.append(
                {
                    "group": row["group"],
                    "p": row["p"],
                    "mode": row["mode"],
                    "q1": q1.to_json(),
                    "irc": irc,
                    "q2": q2.to_json(),
                    "match": ok,
                }
            )
        del G  # freed, with its tables, before the next group is built
    click.echo(f"{len(rows) - bad} of {len(rows)} rows match")
    if output:
        emit({"suite": suite, "rows": results}, output)
    sys.exit(0 if bad == 0 else 1)


@main.command("oracle")
@click.argument("kind", type=click.Choice(
    ["subgroup-lattice", "brute-classes", "brute-table"]))
@click.argument("group")
@click.option("-p", "--prime", default=None, type=int, callback=_prime,
              help="needed for subgroup-lattice")
@click.option("--budget-order", default=200, show_default=True)
@click.option("--budget-classes", default=5000, show_default=True)
def cmd_oracle(kind, group, prime, budget_order, budget_classes):
    """Recompute data by brute force and compare with the fast path."""
    if kind == "subgroup-lattice":
        if prime is None:
            raise ValueError("subgroup-lattice needs -p")
        inst, _ = build_instance(JobSpec(group, prime), load_group(group))
        ok = True
        for side in ("G", "H"):
            fast = build_induced_lattice(inst, side)
            slow = definition_lattice(inst, side, budget_order=budget_order)
            same = fast.canonical() == slow.canonical()
            ok = ok and same
            click.echo(
                f"{side}: fast rank {fast.rank}, brute rank {slow.rank}, "
                f"HNF {'equal' if same else 'DIFFERENT'}"
            )
        sys.exit(0 if ok else 1)
    G = load_group(group)
    if kind == "brute-classes":
        brute = brute_conjugacy_classes(G, budget_order=budget_classes)
        own = _class_element_sets(G, conjugacy_classes(G))
        mine = sorted(frozenset(cl) for cl in brute)
        theirs = sorted(frozenset(cl) for cl in own)
        same = mine == theirs
        click.echo(
            f"{len(brute)} classes, sizes {sorted(len(c) for c in brute)}, "
            f"{'match' if same else 'MISMATCH'}"
        )
        sys.exit(0 if same else 1)
    if kind == "brute-table":
        t = table_for(G)
        same = compare_with_table(G, t, budget_order=budget_order)
        click.echo(
            f"{t.k} irreducibles, degrees {sorted(t.degrees)}, "
            f"{'match' if same else 'MISMATCH'}"
        )
        sys.exit(0 if same else 1)


def _class_element_sets(G, classes):
    out = [[] for _ in classes]
    for row, cid in zip(G.elements(), G.class_ids()):
        out[int(cid)].append(tuple(int(x) for x in row))
    return out


if __name__ == "__main__":
    main()
