"""The `epk` command-line workbench.

    epk MODEL validate [--mode global|local] [--require-kd45]
    epk MODEL check (--state S | --agent A | --global) FORMULA [--expect true|false]
    epk MODEL update offline J [-o OUT] [--in-place]
    epk MODEL update online J --locals S... [-o OUT] [--in-place]
    epk MODEL update lie-offline --liar I --target J [-o OUT] [--in-place]
    epk MODEL update lie-online --liar I --new J --locals S... [-o OUT] [--in-place]
    epk MODEL export-dot -o OUT
    epk MODEL show

Exit status: 0 on success, 1 when a --expect check disagrees (or a required
validation fails), 2 on any error, 141 when standard output is closed
before everything is written to it (as a shell reports a process that
SIGPIPE ended) and 130 when Ctrl-C stops the command (as SIGINT would), the
last two with nothing written to standard error.  A warning the library
raises is written to standard error as one `epk: warning:` line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import warnings

from . import frames, serialize
from .formulas import ParseError, parse
from .model import KripkeModel, ModelError, StateId, edge_count
from .semantics import holds_at, holds_for_agent, holds_globally
from .updates import lie_offline, lie_online, update_offline, update_online


class _Parser(argparse.ArgumentParser):
    """An `ArgumentParser` that lets the errors of writing its help and
    usage text through, where argparse drops them: a closed standard output
    ends `--help` as it ends any command.  Subparsers share the class."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="epk", description="Epistemic Kripke model workbench")
    ap.add_argument("model", help="path to a model document (JSON)")
    sub = ap.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="report frame properties per agent")
    p_val.add_argument("--mode", choices=["global", "local"], default="global")
    p_val.add_argument("--require-kd45", action="store_true",
                       help="exit 1 unless every agent's report is KD45")
    p_val.set_defaults(run=_cmd_validate)

    p_chk = sub.add_parser("check", help="evaluate a formula")
    scope = p_chk.add_mutually_exclusive_group(required=True)
    scope.add_argument("--state", metavar="S")
    scope.add_argument("--agent", metavar="A")
    scope.add_argument("--global", dest="global_", action="store_true")
    p_chk.add_argument("formula")
    p_chk.add_argument("--expect", choices=["true", "false"])
    p_chk.set_defaults(run=_cmd_check)

    p_upd = sub.add_parser("update", help="apply an ontological update")
    p_upd.set_defaults(run=_cmd_update)
    upd = p_upd.add_subparsers(dest="kind", required=True)

    # Each kind names the operator call it makes.  The operator is looked
    # up when the call runs, not when the cached parser is built, so that
    # rebinding its name (as a tracer does) takes effect.
    k_off = upd.add_parser("offline", help="agent goes offline")
    k_off.add_argument("target", metavar="J")
    k_off.set_defaults(apply=lambda model, args: update_offline(model, args.target))

    k_on = upd.add_parser("online", help="agent comes online")
    k_on.add_argument("target", metavar="J")
    k_on.add_argument("--locals", nargs="+", required=True, metavar="S")
    k_on.set_defaults(apply=lambda model, args: update_online(model, args.target,
                                                              _locals(args)))

    k_loff = upd.add_parser("lie-offline", help="untruthful offline announcement")
    k_loff.add_argument("--liar", required=True, metavar="I")
    k_loff.add_argument("--target", required=True, metavar="J")
    k_loff.set_defaults(apply=lambda model, args: lie_offline(model, args.liar, args.target))

    k_lon = upd.add_parser("lie-online", help="untruthful online announcement")
    k_lon.add_argument("--liar", required=True, metavar="I")
    k_lon.add_argument("--new", dest="target", required=True, metavar="J")
    k_lon.add_argument("--locals", nargs="+", required=True, metavar="S")
    k_lon.set_defaults(apply=lambda model, args: lie_online(model, args.liar, args.target,
                                                            _locals(args)))

    for k in (k_off, k_on, k_loff, k_lon):
        k.add_argument("-o", "--output", metavar="OUT",
                       help="write the updated model here")
        k.add_argument("--in-place", action="store_true",
                       help="overwrite the input file")

    p_dot = sub.add_parser("export-dot", help="write a Graphviz rendering")
    p_dot.add_argument("-o", "--output", required=True, metavar="OUT")
    p_dot.set_defaults(run=_cmd_export_dot)

    sub.add_parser("show", help="summarize the model").set_defaults(run=_cmd_show)
    return ap


def _report_lines(rep: frames.FramePropertyReport, mode: str):
    flags = " ".join(f"{p}={'yes' if getattr(rep, p) else 'no'}"
                     for p in frames.PROPERTIES)
    verdict = f"KD45={'yes' if frames.is_kd45(rep) else 'no'} S5={'yes' if frames.is_s5(rep) else 'no'}"
    yield f"agent {rep.agent} [{mode} over {len(rep.domain)} states]: {flags}  {verdict}"
    for prop in frames.PROPERTIES:
        if prop in rep.witnesses:
            states = ", ".join(s.name for s in rep.witnesses[prop])
            yield f"  {prop} fails at: {states}"


def _cmd_validate(model: KripkeModel, args, out) -> int:
    reports = frames.classify_model(model, args.mode)
    for a in sorted(reports):
        for line in _report_lines(reports[a], args.mode):
            print(line, file=out)
    return int(args.require_kd45 and not all(map(frames.is_kd45, reports.values())))


def _cmd_check(model: KripkeModel, args, out) -> int:
    f = parse(args.formula)
    if args.state is not None:
        value = holds_at(model, StateId.parse(args.state), f)
    elif args.agent is not None:
        value = holds_for_agent(model, args.agent, f)
    else:
        value = holds_globally(model, f)
    print("true" if value else "false", file=out)
    return int(args.expect is not None and (args.expect == "true") != value)


def _locals(args) -> frozenset[StateId]:
    """The `--locals` states, parsed before the operator runs."""
    return frozenset(StateId.parse(s) for s in args.locals)


def _cmd_update(model: KripkeModel, args, out) -> int:
    result = args.apply(model, args)
    print(f"update {args.kind} ({args.target}): "
          f"{len(model.index.order)} -> {len(result.model.index.order)} states, "
          f"{len(result.discarded_states)} discarded", file=out)
    if result.discarded_states:
        print("  discarded: " + ", ".join(sorted(s.name for s in result.discarded_states)),
              file=out)
    for a in sorted(result.added_edges):
        add, rem = result.added_edges[a], result.removed_edges[a]
        if add or rem:
            print(f"  edges[{a}]: +{add} -{rem}", file=out)
    out.flush()  # the summary comes before a document written to standard output
    if args.in_place:
        serialize.save_model(result.model, args.model)
    if args.output:
        serialize.save_model(result.model, args.output)
    return 0


def _cmd_export_dot(model: KripkeModel, args, out) -> int:
    serialize.export_dot(model, args.output)
    print(f"wrote {args.output}", file=out)
    return 0


def _cmd_show(model: KripkeModel, args, out) -> int:
    idx = model.index
    print(f"states ({len(idx.order)}): " + ", ".join(sorted(s.name for s in idx.order)), file=out)
    print(f"agents ({len(model.agents)}): " + ", ".join(sorted(model.agents)), file=out)
    print(f"props ({len(model.props)}): " + ", ".join(sorted(model.props)), file=out)
    for a in sorted(model.agents):
        loc = ", ".join(sorted(s.name for s in idx.states_of(idx.locals[a])))
        print(f"  I({a}) = {{{loc}}}  |R({a})| = {edge_count(idx.rows[a])}", file=out)
    for k in sorted(model.meta):
        print(f"meta.{k}: {model.meta[k]}", file=out)
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _run(argv, out, err) -> int:
    # argparse prints help to sys.stdout and usage errors to sys.stderr,
    # then exits; here both go to the streams given, and the exit status
    # (0 after --help, 2 after a usage error) is returned.
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.run(serialize.load_model(args.model), args, out)
    except (ModelError, ParseError, serialize.DocumentError) as e:
        print(f"epk: error: {e}", file=err)
    except UnicodeEncodeError as e:  # an output whose encoding cannot hold a name
        print(f"epk: error: cannot write {e.object[e.start]!a} in {e.encoding}", file=err)
    except MemoryError:
        print("epk: error: out of memory", file=err)
    return 2


def main(argv=None, out=None, err=None) -> int:
    """Run the command line `argv` (default: `sys.argv[1:]`), writing to
    `out` and `err` (default: the `sys.stdout` and `sys.stderr` of the
    moment), and return its exit status."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        with warnings.catch_warnings():  # the filters in force still apply
            warnings.showwarning = lambda message, *_: print(f"epk: warning: {message}", file=err)
            status = _run(argv, out, err)
        out.flush()  # so that a closed stdout fails here, not at exit
        return status
    except KeyboardInterrupt:  # Ctrl-C: stop quietly, with the status 128 + SIGINT
        return 130
    except BrokenPipeError:
        # Whoever read `out` has gone, as after `epk ... | head`: stop
        # quietly, with the status 128 + SIGPIPE of a process that SIGPIPE
        # ended.  The text left in the stream's buffer goes to the null
        # device, so flushing it at exit raises nothing either.
        with contextlib.suppress(AttributeError, OSError):
            fd = out.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        return 141


if __name__ == "__main__":
    sys.exit(main())
