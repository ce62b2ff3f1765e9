"""The benchmark's three workloads and the checks on their outputs.

Each workload drives pcg's public API from outside: README commands run
in-process through ``pcg.cli.main`` with ``--out`` files, and library calls.
Calls go through module attributes (``equilibria.is_nash``, ``cli.main``) so
that the tracer's wrappers see them. Every call is checked after the timed
part of a pass: against the outputs recorded in ``golden.json`` from the seed
commit, against the paper's values, and, on ``respond``, against the
``Fraction`` oracle in ``pcg.game``.

- ``enumerate``: full n=5 Nash scans (the PoA point and the 43,728-NE point,
  whose 4 MB report loads the write path) and the README sweep grid.
- ``strong``: coalition search: strong-mode enumeration at the 12 acceptance
  points at n=4, and ``check-strong`` on five n=6 canonical profiles.
- ``respond``: single-state scans: full ``is_nash`` scans at n=12..15 and
  seeded response dynamics at n=8..10, each end state checked by the oracle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

from pcg import bitgraph, cli, dynamics, equilibria, game, stateio
from pcg.constructions import CanonicalKind, canonical_state

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canon(value):
    """A JSON-able form of a library result that does not depend on set order."""
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [canon(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return {key: canon(v) for key, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted(canon(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [canon(v) for v in value]
    if isinstance(value, F):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)  # only the infinite penalty is a float
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if hasattr(value, "value"):  # enums
        return value.value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def canon_digest(value) -> str:
    text = json.dumps(canon(value), separators=(",", ":"))
    return sha256(text.encode("utf-8"))[:12]


@dataclasses.dataclass
class PassResult:
    """Timings and checks of one pass, keyed by call label in run order."""

    call_s: dict = dataclasses.field(default_factory=dict)  # label -> seconds of the call
    scan: dict = dataclasses.field(default_factory=dict)  # label -> (states, seconds) inside exhaustive scans
    attempted: int = 0
    failed: int = 0
    digests: dict = dataclasses.field(default_factory=dict)  # label -> output digest
    problems: list = dataclasses.field(default_factory=list)


# -- README commands through pcg.cli.main ---------------------------------------------


class _CliWorkload:
    """Runs ``pcg`` commands in-process, each with its own ``--out`` file."""

    name = ""
    table_ns = ()  # n whose bitgraph tables the commands read

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.golden = None  # label -> sha256 of the output; None while recording

    def commands(self) -> list:
        """(label, argv without --out), in run order; the label names the output file."""
        raise NotImplementedError

    def check_output(self, label: str, text: str):
        """The paper-level assertion on one output; returns a problem or None."""
        return None

    def setup(self) -> PassResult:
        """Builds the inputs and warms the caches; returns the checks of any set-up calls."""
        for n in self.table_ns:
            bitgraph.structure_table(n)
            bitgraph.graph_signatures(n)
        return PassResult()

    def run_pass(self, tracer, pacer) -> PassResult:
        """One timed pass with ``tracer`` installed, then the checks of its outputs.

        ``pacer`` runs the reference loop after each call. ``tracer`` must watch ``equilibria.enumerate_equilibria``: the time
        inside enumeration calls gives the scan rate.
        """
        commands = self.commands()
        for label, _ in commands:
            (self.workdir / label).unlink(missing_ok=True)
        errors = {}
        result = PassResult()
        enum = tracer.stats["equilibria.enumerate_equilibria"]
        with tracer:
            for label, argv in commands:
                states, scan_ns = enum.extra["states_examined"], enum.total_ns
                start = time.perf_counter()
                try:
                    code = cli.main([*argv, "--out", str(self.workdir / label)])
                except Exception as exc:  # a crash is a failed call, not a failed benchmark
                    errors[label] = f"raised {exc!r}"
                else:
                    if code != 0:
                        errors[label] = f"exit code {code}"
                result.call_s[label] = time.perf_counter() - start
                if enum.total_ns != scan_ns:
                    result.scan[label] = (enum.extra["states_examined"] - states, (enum.total_ns - scan_ns) / 1e9)
                pacer.after(result.call_s[label])
        for label, _ in commands:
            self._check(label, errors.get(label), result)
        return result

    def _check(self, label: str, error, result: PassResult):
        result.attempted += 1
        problem = error
        if problem is None:
            data = (self.workdir / label).read_bytes()
            digest = sha256(data)
            result.digests[label] = digest
            if self.golden is not None and digest != self.golden.get(label):
                problem = "output differs from the recorded output"
            else:
                problem = self.check_output(label, data.decode("utf-8"))
        if problem is not None:
            result.failed += 1
            result.problems.append(f"{self.name} {label}: {problem}")


def _header(text: str) -> dict:
    """The ``key value`` lines before the first blank line of a report."""
    fields = {}
    for line in text.split("\n\n", 1)[0].splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    return fields


class EnumerateWorkload(_CliWorkload):
    name = "enumerate"
    table_ns = (4, 5)

    def commands(self):
        return [
            ("poa-5-3-5_2.txt", ["poa", "--n", "5", "--alpha", "3", "--beta", "5/2"]),
            ("enumerate-5-1-3.txt", ["enumerate", "--n", "5", "--alpha", "1", "--beta", "3"]),
            ("sweep-readme.csv", ["sweep", "--n", "4", "--alpha", "1/2,1,3/2,2,3", "--beta", "3/2,2,5/2,3"]),
        ]

    def check_output(self, label, text):
        if label.startswith("poa"):
            fields = _header(text)
            if (fields.get("equilibria"), fields.get("poa")) != ("30", "25/22"):
                return "expected 30 equilibria and PoA 25/22"
        elif label.startswith("enumerate"):
            fields = _header(text)
            if (fields.get("states-examined"), fields.get("equilibria")) != ("1048576", "43728"):
                return "expected 43728 equilibria among 1048576 states"
        elif len(text.splitlines()) != 21:
            return "expected a header and 20 sweep rows"
        return None


# The acceptance suite's criterion-7 grid (tests/test_acceptance.py, POINTS7).
POINTS7 = [
    ("1", "2"), ("2", "3/2"), ("3", "5/2"), ("4", "3"),
    ("1", "3"), ("2", "5/2"), ("3", "3"), ("1/2", "3/2"),
    ("3/2", "2"), ("5/2", "2"), ("2", "2"), ("4", "5"),
]

# n=6 canonical profiles that are Nash, with the strong verdict the paper gives.
STRONG_PROFILES = [
    ("periphery-star", "4", "3", True),
    ("complete", "1", "3", True),
    ("complete", "1/2", "3/2", True),
    ("center-star", "1", "3", False),
    ("empty", "1/2", "3/2", False),
]


def _tag(*parts: str) -> str:
    return "-".join(p.replace("/", "_") for p in parts)


class StrongWorkload(_CliWorkload):
    name = "strong"
    table_ns = (4,)

    def _profiles(self):
        return [(f"state-{_tag(kind, a, b)}.txt", kind, a, b, strong) for kind, a, b, strong in STRONG_PROFILES]

    def setup(self):
        result = super().setup()
        for label, kind, a, b, _ in self._profiles():
            code = cli.main(["construct", "--kind", kind, "--n", "6", "--alpha", a, "--beta", b,
                             "--out", str(self.workdir / label)])
            self._check(label, None if code == 0 else f"exit code {code}", result)
        return result

    def commands(self):
        # The short n=4 enumerations are spread between the n=6 checks, so that
        # a few seconds of interference from other tenants cannot hit them all.
        enumerations = [(f"strong-{_tag('4', a, b)}.txt", ["enumerate", "--mode", "strong", "--n", "4",
                                                          "--alpha", a, "--beta", b]) for a, b in POINTS7]
        profiles = self._profiles()
        share = -(-len(enumerations) // len(profiles))
        out = []
        for k, (label, *_) in enumerate(profiles):
            state = str(self.workdir / label)
            out.append(("nash-" + label, ["check-nash", "--state", state]))
            out.append(("strong-" + label, ["check-strong", "--state", state]))
            out.extend(enumerations[k * share:(k + 1) * share])
        return out

    def check_output(self, label, text):
        if label.startswith("strong-4-"):
            fields = _header(text)
            if int(fields["strong-equilibria"]) > int(fields["equilibria"]):
                return "more strong equilibria than Nash equilibria"
            if fields["spoa"] != "none" and F(fields["spoa"]) > 4:
                return "strong PoA above 4"
        elif label.startswith("nash-"):
            if text.splitlines()[0] != "nash true":
                return "profile is not Nash"
        elif label.startswith("strong-state-"):
            expected = {f"strong-state-{_tag(k, a, b)}.txt": s for k, a, b, s in STRONG_PROFILES}[label]
            lines = text.splitlines()
            if lines[0] != f"strong {'true' if expected else 'false'}":
                return f"expected strong {expected}"
            if not expected and not lines[1].startswith("coalition "):
                return "refutation without a coalition witness"
        return None


# -- single-state library calls --------------------------------------------------------


PROBE_NS = (12, 13, 14, 15)
DYNAMICS_NS = (8, 9, 10)
STARTS_PER_N = 8  # two per (move rule, player order) pair
DYNAMICS_MAX_STEPS = 2000


@dataclasses.dataclass
class _Probe:
    """A full ``is_nash`` scan whose verdict must be true."""

    state: object
    params: object


@dataclasses.dataclass
class _Start:
    """A dynamics run and the checks of its end state."""

    state: object
    params: object
    policy: object


class RespondWorkload:
    """Single-state scans; every input is drawn from the seed.

    The amount of work does not depend on the seed: the sizes n are fixed,
    and the seed chooses labelings, edge owners, prices and start states.
    """

    name = "respond"

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.golden = None  # str(seed) -> concatenated 12-hex item digests; None while recording
        self.items = []

    def setup(self) -> PassResult:
        rng = random.Random(self.seed)
        items = []
        for n in PROBE_NS:
            center = rng.randrange(n)
            star = canonical_state(CanonicalKind(name="periphery-star", center=center), n)
            items.append(_Probe(star, game.GameParams(n, F(3), F(5, 2))))
            owners = [set() for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.getrandbits(1):
                        owners[i].add(j)
                    else:
                        owners[j].add(i)
            beta = rng.choice([F(3, 2), F(2), F(3), F(5), game.INFINITE])
            complete = game.StrategyVector(tuple(frozenset(o) for o in owners))
            items.append(_Probe(complete, game.GameParams(n, F(1, 2), beta)))
        rules = list(dynamics.MoveRule)
        orders = list(dynamics.PlayerOrder)
        for n in DYNAMICS_NS:
            for k in range(STARTS_PER_N):
                params = game.GameParams(
                    n, rng.choice([F(1, 2), F(1), F(3, 2), F(2), F(3), F(4)]),
                    rng.choice([F(3, 2), F(2), F(5, 2), F(3), F(5)]))
                buys = []
                for i in range(n):
                    buys.append(frozenset(j for j in range(n) if j != i and rng.getrandbits(1)))
                policy = dynamics.DynamicsPolicy(
                    move_rule=rules[k % 2], order=orders[k // 2 % 2],
                    max_steps=DYNAMICS_MAX_STEPS, seed=rng.randrange(2**31))
                items.append(_Start(game.StrategyVector(tuple(buys)), params, policy))
        self.items = items
        # Warm the lazy per-n strategy order, which every later scan at that n reuses.
        for n in sorted({item.params.n for item in items}):
            equilibria.best_response(game.StrategyVector.empty(n), 0, game.GameParams(n, F(1), F(2)))
        return PassResult()

    def run_pass(self, tracer, pacer) -> PassResult:
        """One timed pass with ``tracer`` installed, then the checks of its outputs.

        ``pacer`` runs the reference loop after each call.
        """
        outputs = []
        result = PassResult()
        with tracer:
            for index, item in enumerate(self.items):
                start = time.perf_counter()
                try:
                    if isinstance(item, _Probe):
                        outputs.append({"is_nash": equilibria.is_nash(item.state, item.params)})
                    else:
                        outputs.append(self._respond(item))
                except Exception as exc:  # a crash is a failed call, not a failed benchmark
                    outputs.append(exc)
                seconds = time.perf_counter() - start
                result.call_s[f"item{index}"] = seconds
                if isinstance(item, _Probe):
                    n = item.params.n
                    # a true verdict scans every alternative of every player
                    result.scan[f"item{index}"] = (n * ((1 << (n - 1)) - 1), seconds)
                pacer.after(seconds)
        recorded = (self.golden or {}).get(str(self.seed))
        for index, (item, output) in enumerate(zip(self.items, outputs)):
            calls = 1 if isinstance(item, _Probe) else 2 * item.params.n + 5
            result.attempted += calls
            label = f"item{index}"
            if isinstance(output, Exception):
                problem = f"raised {output!r}"
            else:
                digest = canon_digest(output)
                result.digests[label] = digest
                if recorded is not None and digest != recorded[12 * index:12 * index + 12]:
                    problem = "results differ from the recorded results"
                elif isinstance(item, _Probe):
                    problem = None if output["is_nash"].verdict else "expected a Nash verdict"
                else:
                    problem = _oracle_problem(item, output)
            if problem is not None:
                result.failed += calls
                result.problems.append(f"respond seed {self.seed} {label} (n={item.params.n}): {problem}")
        return result

    @staticmethod
    def _respond(item: _Start) -> dict:
        params = item.params
        outcome = dynamics.run(item.state, item.policy, params)
        if isinstance(outcome, dynamics.Converged):
            end = outcome.final_state
        elif isinstance(outcome, dynamics.BudgetExhausted):
            end = outcome.last_state
        else:
            end = outcome.states[0]
        report = equilibria.is_nash(end, params)
        best = [equilibria.best_response(end, i, params) for i in range(params.n)]
        costs = [game.individual_cost(end, i, params) for i in range(params.n)]
        social = game.social_cost(end, params)
        text = stateio.serialize_state(end, params)
        parsed = stateio.parse_state(text)
        return {"run": outcome, "end": end, "is_nash": report, "best_response": best,
                "individual_cost": costs, "social_cost": social, "text": text, "parsed": parsed}


def _oracle_problem(item: _Start, out: dict):
    """Checks one end state's fast-path results against the Fraction oracle."""
    params, end = item.params, out["end"]

    def oracle(player, strategy):
        return game.individual_cost(end.replace(player, strategy), player, params).total

    current = [c.total for c in out["individual_cost"]]
    for player, best in enumerate(out["best_response"]):
        for strategy in (best.strategies[0], best.strategies[-1]):
            if oracle(player, strategy) != best.cost:
                return f"best_response of player {player} disagrees with the oracle"
        if best.cost > current[player]:
            return f"best_response of player {player} costs more than staying"
    report = out["is_nash"]
    if report.verdict != all(b.cost == c for b, c in zip(out["best_response"], current)):
        return "is_nash verdict disagrees with best_response"
    if not report.verdict:
        w = report.witness
        if not (w.old_cost == current[w.player] and w.new_cost == oracle(w.player, w.new_strategy)
                and w.new_cost < w.old_cost):
            return "is_nash witness disagrees with the oracle"
    if isinstance(out["run"], dynamics.Converged) and not report.verdict:
        return "dynamics converged to a state that is not Nash"
    if out["social_cost"] != sum(current):
        return "social_cost is not the sum of individual costs"
    if out["parsed"] != (end, params):
        return "state file round trip changed the state"
    return None


WORKLOADS = {w.name: w for w in (EnumerateWorkload, StrongWorkload, RespondWorkload)}
