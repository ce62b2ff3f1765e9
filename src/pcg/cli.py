"""Command line front end.

Eleven subcommands cover canonical constructions, cost reports, equilibrium
checks, exhaustive enumeration, optimum search, anarchy metrics, analytic
classification, bound evaluation, response dynamics and parameter sweeps.
Rational arguments use p/q syntax (plain integers are fine); ``--beta inf``
selects the infinite-penalty game.

Exit codes: 0 on success, 1 on a validation or usage error, 2 when a guard
refuses the computation because its estimated work is over budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction
from typing import Optional

from . import theory
from .constructions import CanonicalKind, canonical_state, structure_classify
from .dynamics import (
    DynamicsPolicy,
    MoveRule,
    PlayerOrder,
    TieRule,
    cycle_search,
    run,
    serialize_outcome,
)
from .equilibria import (
    OVERRIDE_FACTOR,
    GuardExceeded,
    enumerate_equilibria,
    is_nash,
    is_strong,
    price_metrics,
    social_optimum_bruteforce,
)
from .game import (
    GameParams,
    as_integer,
    as_penalty,
    as_rational,
    components,
    individual_cost,
    induce_graph,
    is_infinite,
    social_cost,
)
from .stateio import StateParseError, format_value, parse_state, serialize_state, state_writer, targets_line
from .sweep import SweepSpec, run_sweep


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad flags; route everything through
    # _UsageError so validation failures uniformly exit 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# -- argument conversion ------------------------------------------------------------


def _arg(convert):
    """An argparse type that reports ``convert``'s ValueError as a usage error."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _value_list(convert):
    def parse(text: str):
        items = [part for part in text.split(",") if part.strip()]
        if not items:
            raise ValueError(f"empty list {text!r}")
        return [convert(part) for part in items]

    return _arg(parse)


def _params_args(sub, required: bool = True):
    sub.add_argument("--n", type=_arg(as_integer), required=required, help="number of players")
    sub.add_argument("--alpha", type=_arg(as_rational), required=required, help="edge price p/q")
    sub.add_argument("--beta", type=_arg(as_penalty), required=required, help="disconnection penalty p/q, or inf")


def _enumeration_args(sub):
    sub.add_argument("--mode", choices=("nash", "strong"), default="nash")
    sub.add_argument("--override-guard", action="store_true", help=f"multiply the enumeration budget by {OVERRIDE_FACTOR}")
    sub.add_argument("--max-coalition", type=_arg(as_integer), default=None)


def _params_of(args) -> GameParams:
    return GameParams(n=args.n, alpha=args.alpha, beta=args.beta)


def _refuse_given(args, flag, *ignored):
    """Refuse each option in ``ignored`` that was given: ``flag`` sets or ignores it."""
    given = "/".join("--" + name.replace("_", "-") for name in ignored if getattr(args, name) is not None)
    if given:
        raise ValueError(f"{flag} and {given} are mutually exclusive")


def _load_state(args, *ignored):
    """Parse the ``--state`` file, refusing each option in ``ignored`` that was given: the file sets it."""
    _refuse_given(args, "--state", *ignored)
    with open(args.state, "rb") as handle:
        return parse_state(handle)


def _emit(text: str, out: Optional[str]):
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _fmt(value) -> str:
    """Report text: ``none``, ``true``/``false``, floats by repr, else as in state files."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (Fraction, int)) or is_infinite(value):
        return format_value(value)
    return repr(value)  # floats from log-based caps


# -- subcommand handlers ------------------------------------------------------------


def _cmd_construct(args) -> int:
    params = _params_of(args)
    kind = CanonicalKind.parse(args.kind)
    if args.center is not None:
        if kind.name not in ("center-star", "periphery-star"):
            raise ValueError(f"--center applies to star kinds, not {kind.name!r}")
        kind = dataclasses.replace(kind, center=args.center)
    state = canonical_state(kind, params.n)
    _emit(serialize_state(state, params), args.out)
    return 0


def _cmd_cost(args) -> int:
    state, params = _load_state(args)
    lines = [f"social {_fmt(social_cost(state, params))}"]
    if args.player is not None:
        b = individual_cost(state, args.player, params)
        lines.append(
            f"player {args.player} edge {_fmt(b.edge_cost)} "
            f"distance {_fmt(b.distance_cost)} penalty {_fmt(b.penalty_cost)} "
            f"total {_fmt(b.total)}"
        )
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_check_nash(args) -> int:
    state, params = _load_state(args)
    report = is_nash(state, params)
    if report.verdict:
        text = f"nash true\nstrict {_fmt(report.strict)}"
    else:
        d = report.witness
        text = "\n".join(
            [
                "nash false",
                f"deviation player {d.player}",
                targets_line("deviation old", d.old_strategy),
                targets_line("deviation new", d.new_strategy),
                f"deviation old-cost {_fmt(d.old_cost)} new-cost {_fmt(d.new_cost)}",
            ]
        )
    _emit(text, args.out)
    return 0


def _cmd_check_strong(args) -> int:
    state, params = _load_state(args)
    report = is_strong(state, params, max_coalition=args.max_coalition)
    if report.verdict:
        text = "strong true"
    else:
        d = report.witness
        lines = ["strong false", "coalition " + " ".join(str(p) for p in d.players)]
        for idx, player in enumerate(d.players):
            lines.append(targets_line(f"member {player} new", d.new_strategies[idx]))
            lines.append(
                f"member {player} old-cost {_fmt(d.old_costs[idx])} "
                f"new-cost {_fmt(d.new_costs[idx])}"
            )
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0


def _cmd_enumerate(args) -> int:
    params = _params_of(args)
    result = enumerate_equilibria(
        params,
        mode=args.mode,
        dedupe_iso=args.dedupe_iso,
        override_guard=args.override_guard,
        max_coalition=args.max_coalition,
    )
    prices, strong = result.prices, result.strong_prices
    lines = [
        f"mode {result.mode}",
        f"states-examined {result.states_examined}",
        f"equilibria {len(result.equilibria)}",
        f"disconnected {result.disconnected_count}",
        f"optimum-cost {_fmt(prices.optimum_cost)}",
        f"best-cost {_fmt(prices.best_cost)}",
        f"worst-cost {_fmt(prices.worst_cost)}",
        f"pos {_fmt(prices.pos)}",
        f"poa {_fmt(prices.poa)}",
    ]
    if strong is not None:
        lines.append(f"strong-equilibria {strong.equilibrium_count}")
        lines.append(f"worst-strong-cost {_fmt(strong.worst_cost)}")
        lines.append(f"spoa {_fmt(strong.poa)}")
    if result.iso_class_count is not None:
        lines.append(f"iso-classes {result.iso_class_count}")
    shown = result.iso_representatives if args.dedupe_iso else result.equilibria
    write = state_writer(params)
    blocks = [write(s) for s in shown]
    text = "\n".join(lines) + "\n"
    if blocks:
        text += "\n" + "\n".join(blocks)
    _emit(text, args.out)
    return 0


def _cmd_optimum(args) -> int:
    params = _params_of(args)
    result = social_optimum_bruteforce(params)
    edges = " ".join(f"{i}-{j}" for i, j in result.edges)
    names = "+".join(theory.social_optimum_class(params).names())
    text = "\n".join(
        [
            f"cost {_fmt(result.cost)}",
            f"class {names}",
            "edges :" + (f" {edges}" if edges else ""),
        ]
    )
    text += "\n\n" + serialize_state(result.as_state(), params)
    _emit(text, args.out)
    return 0


def _cmd_poa(args) -> int:
    params = _params_of(args)
    metrics = price_metrics(
        params,
        mode=args.mode,
        override_guard=args.override_guard,
        max_coalition=args.max_coalition,
    )
    lines = [
        f"mode {args.mode}",
        f"found {_fmt(metrics.found)}",
        f"equilibria {metrics.equilibrium_count}",
        f"optimum-cost {_fmt(metrics.optimum_cost)}",
        f"poa {_fmt(metrics.poa)}",
        f"pos {_fmt(metrics.pos)}",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_classify(args) -> int:
    params = _params_of(args)
    report = theory.classify_region(params)
    bound = report.poa_bound
    lines = [
        f"n {params.n} alpha {_fmt(params.alpha)} beta {_fmt(params.beta)}",
        f"optimum-class {'+'.join(report.optimum_class.names())}",
        f"optimum-cost {_fmt(report.optimum_class.cost)}",
        f"disconnected-ne {_fmt(report.disconnected_ne_possible)}",
        f"poa-region {bound.region}",
        f"poa-kind {bound.kind}",
    ]
    if bound.value is not None:
        lines.append(f"poa-value {_fmt(bound.value)}")
    if bound.symbolic is not None:
        lines.append(f"poa-symbolic {bound.symbolic}")
    if bound.empty_ne_ratio is not None:
        lines.append(f"empty-ne-ratio {_fmt(bound.empty_ne_ratio)}")
    for label, inequality in report.structure_exclusions:
        lines.append(f"excluded {label} : {inequality}")
    _emit("\n".join(lines), args.out)
    return 0


def _render_evaluation(evaluation) -> list:
    lines = [f"bounds {evaluation.subject}"]
    for c in evaluation.checks:
        status = "satisfied" if c.satisfied else "violated"
        lines.append(f"check {c.name} {status} : {c.inequality} : left {_fmt(c.left)} right {_fmt(c.right)}")
    return lines


def _cmd_bounds(args) -> int:
    if args.state is not None:
        state, params = _load_state(args, "n", "alpha", "beta", "min_size", "min_diameter")
        decomp = components(state)
        graph = induce_graph(state)
        nonsingleton = decomp.nonsingleton()
        if not nonsingleton:
            _emit("no non-singleton components", args.out)
            return 0
        lines = []
        for comp in nonsingleton:
            label = structure_classify(graph, comp.vertices)
            head = "component " + " ".join(str(v) for v in sorted(comp.vertices)) + f" : {label}"
            lines.append(head)
            try:
                evaluation = theory.component_conditions(label, params.alpha, params.beta)
            except ValueError:
                lines.append("  no analytic condition in scope")
            else:
                for entry in _render_evaluation(evaluation)[1:]:
                    lines.append("  " + entry)
        n_l = min(comp.size for comp in nonsingleton)
        diam_l = min(comp.diameter for comp in nonsingleton)
        lines += _render_evaluation(
            theory.nonempty_ne_bounds(params.n, n_l, diam_l, params.alpha, params.beta)
        )
        _emit("\n".join(lines), args.out)
        return 0
    if args.n is None or args.alpha is None or args.beta is None:
        raise ValueError("bounds needs either --state or all of --n/--alpha/--beta")
    if args.min_size is None or args.min_diameter is None:
        raise ValueError("bounds without --state needs --min-size and --min-diameter")
    params = _params_of(args)
    evaluation = theory.nonempty_ne_bounds(
        params.n, args.min_size, args.min_diameter, params.alpha, params.beta
    )
    _emit("\n".join(_render_evaluation(evaluation)), args.out)
    return 0


def _cmd_dynamics(args) -> int:
    if args.cycle_search is not None:
        _refuse_given(args, "--cycle-search", "state", "policy", "order", "tie")
        if args.n is None or args.alpha is None or args.beta is None:
            raise ValueError("--cycle-search needs --n, --alpha and --beta")
        params = _params_of(args)
        witness = cycle_search(
            params, trials=args.cycle_search, seed=args.seed, max_steps=args.max_steps
        )
        if witness is None:
            _emit(f"no-cycle trials {args.cycle_search}", args.out)
        else:
            text = f"cycle-found trial {witness.trial}\n"
            text += serialize_outcome(witness.cycle, params)
            _emit(text, args.out)
        return 0
    if args.state is None:
        raise ValueError("dynamics needs --state (or --cycle-search with --n/--alpha/--beta)")
    state, params = _load_state(args, "n", "alpha", "beta")
    policy = DynamicsPolicy(
        move_rule=MoveRule(args.policy or MoveRule.BEST_RESPONSE),
        order=PlayerOrder(args.order or PlayerOrder.ROUND_ROBIN),
        tie_rule=TieRule(args.tie or TieRule.PREFER_CURRENT),
        max_steps=args.max_steps,
        seed=args.seed,
    )
    outcome = run(state, policy, params)
    _emit(serialize_outcome(outcome, params), args.out)
    return 0


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        ns=args.n,
        alphas=args.alpha,
        betas=args.beta,
        mode=args.mode,
        override_guard=args.override_guard,
        max_coalition=args.max_coalition,
    )
    if args.out is None:
        run_sweep(spec, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            run_sweep(spec, handle)
    return 0


# -- parser assembly ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="pcg", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    subs.required = True

    def add(name, handler, help_text):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=handler)
        sub.add_argument("--out", default=None, help="write output to this file instead of stdout")
        return sub

    sub = add("construct", _cmd_construct, "emit a canonical state file")
    _params_args(sub)
    sub.add_argument(
        "--kind",
        required=True,
        help="empty | complete | center-star | periphery-star | cycle:LEN | clique-of-stars:K:L",
    )
    sub.add_argument("--center", type=_arg(as_integer), default=None, help="center vertex for star kinds")

    sub = add("cost", _cmd_cost, "social cost of a state, optionally one player's breakdown")
    sub.add_argument("--state", required=True, help="state file")
    sub.add_argument("--player", type=_arg(as_integer), default=None)

    sub = add("check-nash", _cmd_check_nash, "unilateral-deviation check with witness")
    sub.add_argument("--state", required=True, help="state file")

    sub = add("check-strong", _cmd_check_strong, "coalition-deviation check with witness")
    sub.add_argument("--state", required=True, help="state file")
    sub.add_argument("--max-coalition", type=_arg(as_integer), default=None)

    sub = add("enumerate", _cmd_enumerate, "exhaustive equilibrium enumeration")
    _params_args(sub)
    _enumeration_args(sub)
    sub.add_argument("--dedupe-iso", action="store_true", help="report isomorphism classes")

    sub = add("optimum", _cmd_optimum, "exact social optimum by exhaustive graph search")
    _params_args(sub)

    sub = add("poa", _cmd_poa, "anarchy and stability ratios from enumeration")
    _params_args(sub)
    _enumeration_args(sub)

    sub = add("classify", _cmd_classify, "analytic region report for a parameter point")
    _params_args(sub)

    sub = add("bounds", _cmd_bounds, "necessary-condition checks for disconnected equilibria")
    sub.add_argument("--state", default=None, help="state file; bounds use its components")
    _params_args(sub, required=False)
    sub.add_argument("--min-size", type=_arg(as_integer), default=None, help="smallest non-singleton component size")
    sub.add_argument("--min-diameter", type=_arg(as_integer), default=None, help="smallest non-singleton component diameter")

    sub = add("dynamics", _cmd_dynamics, "run response dynamics or search for cycles")
    sub.add_argument("--state", default=None, help="start state file")
    _params_args(sub, required=False)
    sub.add_argument("--policy", choices=[r.value for r in MoveRule], default=None)
    sub.add_argument("--order", choices=[o.value for o in PlayerOrder], default=None)
    sub.add_argument("--tie", choices=[t.value for t in TieRule], default=None)
    sub.add_argument("--seed", type=_arg(as_integer), default=0)
    sub.add_argument("--max-steps", type=_arg(as_integer), default=10_000)
    sub.add_argument("--cycle-search", type=_arg(as_integer), default=None, metavar="TRIALS")

    sub = add("sweep", _cmd_sweep, "CSV sweep over a parameter grid")
    sub.add_argument("--n", type=_value_list(as_integer), required=True, help="comma-separated list")
    sub.add_argument("--alpha", type=_value_list(as_rational), required=True, help="comma-separated list")
    sub.add_argument("--beta", type=_value_list(as_penalty), required=True, help="comma-separated list, inf allowed")
    _enumeration_args(sub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 2
    except (StateParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
