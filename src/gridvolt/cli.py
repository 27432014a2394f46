"""Command line front end: generate feeders, train, certify, evaluate."""

import argparse
import json
import math
import os
import sys

from . import bench, dynamics, grid, lyapunov, policy, rl
from .util import fmt, keep_freed_memory


class CliError(Exception):
    """Bad flags or unreadable files; exits with code 2."""


def _load_network(path):
    if not os.path.exists(path):
        raise CliError(f"network file not found: {path}")
    try:
        net, _warn = grid.load_network(path)
    except (KeyError, TypeError, ValueError) as exc:
        # a JSONDecodeError or NetworkValidationError is a ValueError
        raise CliError(f"bad network file {path}: {exc}") from exc
    return net


def _bounded(kind, low, strict=False):
    """argparse type: a finite ``kind`` value >= ``low`` (> if ``strict``)."""
    def parse(text):
        value = kind(text)
        if not (low < value if strict else low <= value) or value == math.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {low}, "
                f"got {text}")
        return value
    parse.__name__ = kind.__name__      # "invalid int value" on bad text
    return parse


def _load_policy(spec, band):
    """Resolve a policy argument: 'linear', 'zero', or a checkpoint path."""
    if spec == "linear":
        return "linear", policy.MonotonePolicy(policy.droop(band, 1.0))
    if spec == "zero":
        return "zero", policy.zero_policy(band)
    if not os.path.exists(spec):
        raise CliError(f"policy checkpoint not found: {spec}")
    name = os.path.splitext(os.path.basename(spec))[0]
    try:
        with open(spec) as fh:
            data = json.load(fh)    # a JSONDecodeError is a ValueError
        if isinstance(data, dict) and data.get("kind") == "mlp":
            pol, ck_band = rl.parse_net_policy(data, spec)
        else:
            _, ck_band, _, pol = policy.parse_checkpoint(data)
        if len(ck_band[0]) != len(band[0]):
            raise CliError(f"checkpoint {spec} has {len(ck_band[0])} buses, "
                           f"the network has {len(band[0])}")
    except (policy.CheckpointError, ValueError) as exc:
        raise CliError(f"bad checkpoint {spec}: {exc}") from exc
    return name, pol


def _suite_for(args, n):
    if args.scenario_file:
        if not os.path.exists(args.scenario_file):
            raise CliError(f"scenario file not found: {args.scenario_file}")
        try:
            suite = dynamics.load_scenarios(args.scenario_file)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"bad scenario file {args.scenario_file}: "
                           f"{exc}") from exc
        if not suite:
            raise CliError(f"scenario file {args.scenario_file} is empty")
        for v_env, q0, label in suite:
            if v_env.shape != (n,) or q0.shape != (n,):
                raise CliError(
                    f"scenario {label} has {v_env.size} v_env and {q0.size} "
                    f"q0 entries, the network has {n} buses")
            if not all(map(math.isfinite, [*v_env, *q0])):
                raise CliError(f"scenario {label} has a non-finite entry")
        return suite
    if args.scenarios < 1:
        raise CliError("need --scenarios >= 1 or --scenario-file")
    return dynamics.make_suite(n, args.scenarios, seed=args.seed)


def cmd_generate_network(args):
    if args.fixture:
        net = grid.five_bus_fixture()
    elif args.buses is not None:
        try:
            net = grid.generate_random_feeder(
                n=args.buses, rng_seed=args.seed,
                impedance_range=(args.impedance_lo, args.impedance_hi))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    else:
        raise CliError("need --buses or --fixture")
    sens = grid.build_sensitivity(net)
    min_eig = grid.check_positive_definite(sens.X)
    grid.save_network(net, args.out)
    print(f"wrote {args.out}: {net.n} controllable buses, "
          f"min sensitivity eigenvalue {fmt(min_eig)}")
    return 0


def cmd_train(args):
    if args.actor == "unconstrained" and args.scope == "joint":
        raise CliError("--scope joint picks the monotone actor's critic; "
                       "--actor unconstrained trains one local net per bus")
    net = _load_network(args.network)
    sens = grid.build_sensitivity(net)
    band = net.bounds()
    episodes = args.episodes
    if episodes is None:
        episodes = 200 if args.actor == "stable" else 600
    cfg = rl.TrainConfig(episodes=episodes, seed=args.seed,
                         agent_scope=args.scope)
    env = rl.VoltEnv(X=sens.X, v_lower=band[0], v_upper=band[1],
                     cp=dynamics.CostParams(), dt=args.dt)
    result = rl.train(env, cfg, actor_kind=args.actor)
    meta = {"actor": args.actor, "seed": args.seed, **rl.blas_meta()}
    if args.actor == "stable":
        policy.save_checkpoint(args.out, result.raw, band, cfg.eps, meta=meta)
    else:
        rl.save_net_policy(args.out, result.policy.actor, band, meta=meta)
    if args.log:
        rl.write_training_log(result.log, args.log)
    returns = [row["return"] for row in result.log]
    print(f"wrote {args.out}: {episodes} episodes, "
          f"first return {fmt(returns[0])}, last return {fmt(returns[-1])}, "
          f"{result.diverged_episodes} diverged episodes")
    if result.updates == 0 or 2 * result.diverged_episodes > episodes:
        print(f"warning: training made {result.updates} updates and "
              f"{result.diverged_episodes} of {episodes} episodes diverged; "
              "the checkpoint is likely untrained", file=sys.stderr)
        return 1
    return 0


def cmd_certify(args):
    net = _load_network(args.network)
    sens = grid.build_sensitivity(net)
    band = net.bounds()
    name, pol = _load_policy(args.checkpoint, band)
    cfg = lyapunov.CertifyConfig(
        v_lower=tuple(band[0]), v_upper=tuple(band[1]),
        rollouts=args.rollouts, horizon=args.horizon, dt=args.dt,
        dist_tol=args.tol, seed=args.seed)
    cert = lyapunov.certify_policy(sens.X, pol, cfg, policy_id=name)
    if args.out:
        cert.to_json(args.out)
    print(cert.summary())
    return 0 if cert.passed else 1


def cmd_evaluate(args):
    net = _load_network(args.network)
    sens = grid.build_sensitivity(net)
    band = net.bounds()
    suite = _suite_for(args, net.n)
    policies = [_load_policy(spec, band) for spec in args.policies]
    names = [n for n, _ in policies]
    if len(set(names)) != len(names):
        raise CliError(f"duplicate policy names in report: {names}")
    report = bench.evaluate(policies, sens.X, suite, band, v0=net.v0,
                            T=args.horizon, dt=args.dt,
                            recovery_tol=args.recovery_tol,
                            keep_trajectories=args.traces_dir is not None)
    report.to_csv(args.out)
    if args.histograms:
        bench.write_histograms_csv(report, args.histograms)
    if args.traces_dir:
        os.makedirs(args.traces_dir, exist_ok=True)
        for pname in names:
            for k, (_, _, label) in enumerate(suite):
                path = os.path.join(args.traces_dir, f"{pname}-{k}.csv")
                bench.write_trajectory_csv(report.rollouts[pname], k, path,
                                           band, policy=pname, scenario=label)
    print(f"wrote {args.out}: {len(suite)} scenarios "
          f"(hash {report.scenario_hash}), policies: {', '.join(names)}")
    for pname in names:
        rate, _ = report.metric(pname, "stability_rate")
        rec, _ = report.metric(pname, "recovery_steps")
        cost, _ = report.metric(pname, "transient_cost")
        print(f"  {pname}: stability {fmt(rate)}, "
              f"mean recovery {fmt(rec)} steps, "
              f"mean transient cost {fmt(cost)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gridvolt",
        description="Voltage control on radial feeders: feeders, rollouts, "
                    "training, stability certificates, and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    positive_float = _bounded(float, 0, strict=True)

    p = sub.add_parser("generate-network", help="write a radial feeder file")
    p.add_argument("--buses", type=_bounded(int, 1),
                   help="size of a random feeder (omit with --fixture)")
    p.add_argument("--fixture", action="store_true",
                   help="write the bundled 5-bus feeder instead")
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--impedance-lo", type=positive_float, default=0.01)
    p.add_argument("--impedance-hi", type=positive_float, default=0.08)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate_network)

    p = sub.add_parser("train", help="train a policy and write a checkpoint")
    p.add_argument("--network", required=True)
    p.add_argument("--actor", choices=("stable", "unconstrained"),
                   default="stable")
    p.add_argument("--episodes", type=_bounded(int, 1), default=None,
                   help="default 200 stable / 600 unconstrained")
    p.add_argument("--scope", choices=("local", "joint"), default="local",
                   help="the monotone actor's critic: one per bus (local) or "
                        "one over all buses (joint); --actor unconstrained "
                        "takes local only")
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--dt", type=positive_float, default=0.1)
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("certify", help="stability certificate for a checkpoint")
    p.add_argument("--network", required=True)
    p.add_argument("--checkpoint", required=True,
                   help="'linear', 'zero', or a checkpoint path")
    p.add_argument("--rollouts", type=_bounded(int, 1), default=100)
    p.add_argument("--horizon", type=_bounded(int, 1), default=100)
    p.add_argument("--dt", type=positive_float, default=0.1)
    p.add_argument("--tol", type=_bounded(float, 0), default=1e-3)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("evaluate", help="compare policies over a shared suite")
    p.add_argument("--network", required=True)
    p.add_argument("--policies", nargs="+", required=True,
                   help="list of 'linear', 'zero', or checkpoint paths")
    p.add_argument("--scenario-file")
    p.add_argument("--scenarios", type=int, default=0)
    p.add_argument("--horizon", type=_bounded(int, 1), default=100)
    p.add_argument("--dt", type=positive_float, default=0.1)
    p.add_argument("--recovery-tol", type=_bounded(float, 0),
                   default=bench.DEFAULT_RECOVERY_TOL)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--histograms")
    p.add_argument("--traces-dir")
    p.set_defaults(func=cmd_evaluate)

    return parser


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    keep_freed_memory()     # rollout records are (T+1, S, n) arrays
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single-line diagnostics for ops
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
