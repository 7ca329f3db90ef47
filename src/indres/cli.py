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
from math import gcd, prod
from operator import itemgetter

import click

from .blocks import block_partition, defect_group
from .catalog import BUILDERS, build, rows_for_suite
from .chartab import IntegrityError, load_table, save_table
from .classfun import VirtualCharacter
from .correspondence import (PROPERTIES, Verdict, build_induced_lattice,
                             check_property, check_property_G_with_witness,
                             correspondent_of, full_report, make_instance,
                             pair_table, quotients_json, quotients_q1_q2,
                             table_for)
from .groupcore import (BudgetExceeded, group_from_generators, is_prime, json_int,
                        malformed, normalizer, sylow_subgroup, v_p)
from .oracles import (brute_conjugacy_classes, class_element_sets,
                      compare_with_table, definition_lattice)

# The largest group order a run enumerates.
DEFAULT_ORDER_BUDGET = 10**6


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


def load_group(spec_group, budget_order=DEFAULT_ORDER_BUDGET):
    """A catalog name or a path to a perm-group JSON file, refused when its
    order, read off the stabilizer chain before any element is enumerated,
    exceeds `budget_order`: every group of a run is admitted here."""
    if spec_group in BUILDERS:
        G = build(spec_group)
    else:
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
    if G.order() > budget_order:
        raise BudgetExceeded(f"order {G.order()} exceeds class budget {budget_order}")
    return G


def _parse_abelian_shape(token):
    """'C2xC4' -> [2, 4], the orders of the cyclic factors; C1 is the
    trivial group, and no cyclic group has order 0."""
    ns = []
    for part in token.split("x"):
        if not (part.startswith("C") and part[1:].isdecimal() and int(part[1:])):
            raise ValueError(f"cannot parse group shape {token!r}")
        ns.append(int(part[1:]))
    return ns


def _pick_block(tG, p, token):
    blks = block_partition(tG, p)
    if token.isdecimal():
        # block_partition lists the blocks in index order
        if int(token) >= len(blks):
            raise ValueError(f"no block with index {token}")
        return blks[int(token)]
    ns = _parse_abelian_shape(token)
    for b in blks:
        if p ** b.defect != prod(ns):
            continue
        # D is abelian when every class is one element, and an abelian group
        # is the product of cyclic groups of orders ns exactly when
        # #{x : x^d = 1} = prod gcd(d, n_i) for every d dividing its order
        D = defect_group(tG, b, p)
        orders = [c.rep_order for c in D.class_data()]
        if D.order() == len(orders) == prod(ns) and all(
                sum(d % o == 0 for o in orders) == prod(gcd(d, n) for n in ns)
                for d in (p ** j for j in range(b.defect + 1))):
            return b
    raise ValueError(f"no block with defect group of shape {token}")


def _explicit_subgroup(G, mode, what):
    """The group that an `explicit:<path>` mode names, rebuilt on G's points."""
    path = mode.split(":", 1)[1]
    F = load_group(path)
    if F.degree != G.degree:
        raise IntegrityError(f"{path}: explicit {what} has degree {F.degree}, "
                             f"but the group has degree {G.degree}")
    if not F.is_subgroup_of(G):
        raise IntegrityError(f"explicit {what} is not inside the group")
    return F


def build_instance(spec, G):
    """Construct the (G, p, P, H) instance a JobSpec describes.

    G is the group that `spec.group` names, as `load_group` returns it.
    Returns (inst, block_pair): block_pair is None unless the p-subgroup
    was chosen as the defect group of a named block, in which case the
    property checks run at that block.  A stored table of G or H is checked
    against the group's own table.
    """
    name = spec.group if spec.group in BUILDERS else ""
    if spec.table_g:
        load_table(spec.table_g, table_for(G))
    b = None
    P = None
    if spec.subgroup_mode == "sylow":
        pass
    elif spec.subgroup_mode.startswith("explicit:"):
        P = _explicit_subgroup(G, spec.subgroup_mode, "p-subgroup")
        if P.order() != spec.p ** v_p(P.order(), spec.p):
            raise IntegrityError(f"explicit p-subgroup has order {P.order()}, "
                                 f"not a power of {spec.p}")
    elif spec.subgroup_mode.startswith("block:"):
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
        H = _explicit_subgroup(G, spec.h_mode, "overgroup")
        if not P.is_subgroup_of(H):
            raise IntegrityError("the p-subgroup must lie in the overgroup")
    else:
        raise ValueError(f"unknown overgroup mode {spec.h_mode!r}")

    if spec.table_h:
        load_table(spec.table_h, table_for(H))
    inst = make_instance(G, spec.p, P=P, H=H, name=name)
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
    if "g" in extras:
        # read before any group is built, so a bad witness fails fast
        if not spec.witness:
            raise ValueError("property g needs --witness")
        with open(spec.witness) as fh:
            wit = json.load(fh)
        with malformed("witness"):
            if (wit.get("format"), wit.get("space")) != ("virtual-character", "product"):
                raise IntegrityError("witness file is not a product virtual character")
            coeffs = tuple(json_int(c, "witness coefficient") for c in wit["coeffs"])
            chars_b = sorted(json_int(i, "witness character") for i in wit["block_chars"])
            chars_e = sorted(json_int(i, "witness character")
                             for i in wit["correspondent_chars"])
    inst, block_pair = build_instance(spec, load_group(spec.group))
    report = full_report(inst, props=wants, block_pair=block_pair)
    if "g" in extras:
        mu = VirtualCharacter(pair_table(inst), coeffs)
        b = _witness_block(inst, "G", chars_b, "block_chars")
        e = _witness_block(inst, "H", chars_e, "correspondent_chars")
        if correspondent_of(inst, b) is not e:
            raise ValueError("witness correspondent_chars do not name the "
                             "correspondent of the block_chars block")
        holds = check_property_G_with_witness(inst, b, e, mu)
        report.verdicts["g"] = Verdict(
            "g", holds, level=f"block:{b.index}",
            certificate=None if holds else "witness fails the block transform test")
    ok = all(v.holds for v in report.verdicts.values())
    if "in" in extras:
        ok = ok and report.ml_ok
    return (0 if ok else 1), report.to_json()


def _witness_block(inst, side, chars, key):
    """The block of the side's table whose characters the witness's `key`
    list names."""
    b = next((b for b in block_partition(inst.table(side), inst.p)
              if sorted(b.char_indices) == chars), None)
    if b is None:
        raise ValueError(f"witness {key} name no block of {side}")
    return b


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
        except (BudgetExceeded, OSError, ValueError, KeyError) as exc:
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
@click.option("--budget-order", default=DEFAULT_ORDER_BUDGET, show_default=True)
def cmd_table(group, output, budget_order):
    """Compute and check a character table."""
    t = table_for(load_group(group, budget_order))
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
@click.option("--table-g", default=None,
              help="stored table of the group, checked against its own")
@click.option("--table-h", default=None,
              help="stored table of the overgroup, checked against its own")
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
        emit({"group": group, "p": prime, **quotients_json(q1, q2, per_block)},
             output)


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
        own = class_element_sets(G)
        # compared as sets: `<` on frozensets is the partial subset order,
        # so sorting lists of them gives no canonical order
        same = set(map(frozenset, brute)) == set(map(frozenset, own))
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


if __name__ == "__main__":
    main()
