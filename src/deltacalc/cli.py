"""Command-line front end.

Subcommands:

    expand            rewrite a difference word over the standard directions
    fdeg              functional degree of a polynomial expression, with witness
    reconstruct       binomial-basis form of a polynomial expression
    apply             evaluate a difference word applied to an expression
    verify            run one registered identity suite
    list-identities   show the registry

Expressions use variables x1..xN, integer literals, + - * ^ with ^ the
tightest and unary minus between ^ and *, parentheses, and binomial
atoms C(xi, k) with a nonnegative literal k.  Difference words are
semicolon-separated coordinate tuples such as "(1,0);(2,1)".

Exit codes: 0 on success, 1 when a verification suite fails, 2 on
usage or parse errors and on out-of-range values.  All numbers are
exact decimal integers; --json emits a deterministic machine-readable
form.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence, Union

from .expansion import cyclic_factor, expand_single, expand_word_grouped, expand_word_sequence
from .fdeg import fdeg_general
from .group_ring import IntegerFunction, LatticePoint, apply, word_operator
from .identities import available_identities, verify_identity
from .polyfract import NEG_INFINITY, Polyfract, binom, from_samples


class ExpressionError(ValueError):
    """A polynomial expression failed to parse; carries the 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(message)
        self.column = column


class UsageError(Exception):
    """Bad command-line input outside argparse's reach."""


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, prints as x<index>


@dataclass(frozen=True)
class BinomAtom:
    index: int
    k: int


@dataclass(frozen=True)
class Neg:
    operand: Expression


@dataclass(frozen=True)
class Add:
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Sub:
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Mul:
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Pow:
    base: Expression
    exponent: int


Expression = Union[IntLit, Var, BinomAtom, Neg, Add, Sub, Mul, Pow]


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "name" | "symbol" | "end"
    text: str
    column: int


_SYMBOLS = set("+-*^(),")


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        ch = source[pos]
        if ch in " \t":
            pos += 1
            continue
        column = pos + 1
        if ch.isdigit():
            end = pos
            while end < len(source) and source[end].isdigit():
                end += 1
            tokens.append(_Token("int", source[pos:end], column))
            pos = end
        elif ch.isalpha() or ch == "_":
            end = pos
            while end < len(source) and (source[end].isalnum() or source[end] == "_"):
                end += 1
            tokens.append(_Token("name", source[pos:end], column))
            pos = end
        elif ch in _SYMBOLS:
            tokens.append(_Token("symbol", ch, column))
            pos += 1
        else:
            raise ExpressionError(
                f"syntax error at column {column}: unexpected character {ch!r}", column
            )
    tokens.append(_Token("end", "", len(source) + 1))
    return tokens


class _Parser:
    """Recursive descent over: expr = term (+- term)*, term = unary (* unary)*,
    unary = - unary | power, power = atom (^ INT)*, atom = INT | x<i> |
    C(x<i>, INT) | (expr)."""

    def __init__(self, source: str, dimension: int):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.dimension = dimension

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_symbol(self, symbol: str) -> _Token:
        token = self.peek()
        if token.kind == "symbol" and token.text == symbol:
            return self.take()
        raise ExpressionError(
            f"syntax error at column {token.column}: expected {symbol!r}", token.column
        )

    def parse(self) -> Expression:
        node = self.expr()
        token = self.peek()
        if token.kind != "end":
            raise ExpressionError(
                f"syntax error at column {token.column}: unexpected {token.text!r}",
                token.column,
            )
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.peek().kind == "symbol" and self.peek().text in "+-":
            op = self.take().text
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(self) -> Expression:
        node = self.unary()
        while self.peek().kind == "symbol" and self.peek().text == "*":
            self.take()
            node = Mul(node, self.unary())
        return node

    def unary(self) -> Expression:
        token = self.peek()
        if token.kind == "symbol" and token.text == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expression:
        node = self.atom()
        while self.peek().kind == "symbol" and self.peek().text == "^":
            self.take()
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> int:
        token = self.peek()
        if token.kind == "symbol" and token.text == "-":
            raise ExpressionError(
                f"negative exponent at column {token.column}", token.column
            )
        if token.kind != "int":
            raise ExpressionError(
                f"syntax error at column {token.column}: expected a nonnegative integer exponent",
                token.column,
            )
        return int(self.take().text)

    def variable(self) -> Var:
        token = self.peek()
        if token.kind == "name" and self.var_index(token) is not None:
            self.take()
            return Var(self.var_index(token))
        raise ExpressionError(
            f"syntax error at column {token.column}: expected a variable x1..x{self.dimension}",
            token.column,
        )

    def var_index(self, token: _Token) -> int | None:
        name = token.text
        if len(name) < 2 or name[0] != "x" or not name[1:].isdigit():
            return None
        index = int(name[1:])
        if not 1 <= index <= self.dimension:
            raise ExpressionError(
                f"unknown variable {name!r} at column {token.column} (dimension {self.dimension})",
                token.column,
            )
        return index

    def atom(self) -> Expression:
        token = self.peek()
        if token.kind == "int":
            return IntLit(int(self.take().text))
        if token.kind == "name":
            if token.text == "C":
                self.take()
                self.expect_symbol("(")
                var = self.variable()
                self.expect_symbol(",")
                index_token = self.peek()
                if index_token.kind == "symbol" and index_token.text == "-":
                    raise ExpressionError(
                        f"negative exponent at column {index_token.column}",
                        index_token.column,
                    )
                if index_token.kind != "int":
                    raise ExpressionError(
                        f"syntax error at column {index_token.column}: "
                        "expected a nonnegative integer index",
                        index_token.column,
                    )
                k = int(self.take().text)
                self.expect_symbol(")")
                return BinomAtom(var.index, k)
            index = self.var_index(token)
            if index is not None:
                self.take()
                return Var(index)
            raise ExpressionError(
                f"unknown variable {token.text!r} at column {token.column}", token.column
            )
        if token.kind == "symbol" and token.text == "(":
            self.take()
            node = self.expr()
            self.expect_symbol(")")
            return node
        raise ExpressionError(
            f"syntax error at column {token.column}: expected a value", token.column
        )


def parse(source: str, dimension: int) -> Expression:
    """Parse a polynomial expression over x1..x<dimension>."""
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    return _Parser(source, dimension).parse()


def evaluate_expression(node: Expression, x: Sequence[int]) -> int:
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, Var):
        return x[node.index - 1]
    if isinstance(node, BinomAtom):
        return binom(x[node.index - 1], node.k)
    if isinstance(node, Neg):
        return -evaluate_expression(node.operand, x)
    if isinstance(node, Add):
        return evaluate_expression(node.left, x) + evaluate_expression(node.right, x)
    if isinstance(node, Sub):
        return evaluate_expression(node.left, x) - evaluate_expression(node.right, x)
    if isinstance(node, Mul):
        return evaluate_expression(node.left, x) * evaluate_expression(node.right, x)
    if isinstance(node, Pow):
        return evaluate_expression(node.base, x) ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def expression_degree(node: Expression) -> int:
    """A syntactic upper bound on the total degree."""
    if isinstance(node, IntLit):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, BinomAtom):
        return node.k
    if isinstance(node, Neg):
        return expression_degree(node.operand)
    if isinstance(node, (Add, Sub)):
        return max(expression_degree(node.left), expression_degree(node.right))
    if isinstance(node, Mul):
        return expression_degree(node.left) + expression_degree(node.right)
    if isinstance(node, Pow):
        return expression_degree(node.base) * node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def lower(node: Expression, dimension: int) -> Polyfract:
    """The canonical binomial-basis form of the expression, rebuilt by
    differences from its values on the simplex |j| <= degree_bound."""
    func = IntegerFunction(dimension, lambda p: evaluate_expression(node, p), "expression")
    return from_samples(func, expression_degree(node))


def _format_point(point: Iterable[int]) -> str:
    return "(" + ",".join(str(c) for c in point) + ")"


def _format_word(word: Iterable[LatticePoint]) -> str:
    return ";".join(_format_point(a) for a in word)


def _parse_point_text(text: str, dimension: int, what: str = "point") -> LatticePoint:
    part = text.strip()
    if not (part.startswith("(") and part.endswith(")")):
        raise UsageError(f"{what} {part!r} must look like (1,0)")
    try:
        point = tuple(int(c.strip()) for c in part[1:-1].split(","))
    except ValueError:
        raise UsageError(f"{what} {part!r} must contain only integers") from None
    if len(point) != dimension:
        raise UsageError(f"{what} {part!r} has dimension {len(point)}, expected {dimension}")
    return point


def _parse_word_text(text: str, dimension: int) -> tuple[LatticePoint, ...]:
    parts = [p for p in (piece.strip() for piece in text.split(";")) if p]
    if not parts:
        raise UsageError("the word must contain at least one letter")
    return tuple(_parse_point_text(part, dimension, what="letter") for part in parts)


def _require_dim(args: argparse.Namespace) -> int:
    if args.dim is None:
        raise UsageError("--dim is required for this command")
    if args.dim < 1:
        raise UsageError(f"--dim must be at least 1, got {args.dim}")
    return args.dim


def _emit_json(payload: dict | list) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_expand(args: argparse.Namespace) -> int:
    dimension = _require_dim(args)
    if args.mode == "cyclic":
        if not args.multipliers or not args.step:
            raise UsageError("cyclic mode needs --multipliers and --step")
        try:
            multipliers = tuple(int(r.strip()) for r in args.multipliers.split(","))
        except ValueError:
            raise UsageError(
                f"--multipliers {args.multipliers!r} must be comma-separated integers"
            ) from None
        step = _parse_point_text(args.step, dimension, what="step")
        factor = cyclic_factor(multipliers, step)
        if args.json:
            _emit_json(
                {
                    "command": "expand",
                    "mode": "cyclic",
                    "dim": dimension,
                    "multipliers": list(multipliers),
                    "step": list(step),
                    "factor": factor.to_records(),
                }
            )
        else:
            print(f"mode: cyclic")
            print(f"multipliers: {','.join(map(str, multipliers))}")
            print(f"step: {_format_point(step)}")
            print(f"factor: {factor}")
            print(f"identity: word == factor * delta{_format_point(step)}^{len(multipliers)}")
        return 0

    if not args.word:
        raise UsageError(f"{args.mode} mode needs --word")
    word = _parse_word_text(args.word, dimension)

    if args.mode == "single":
        if len(word) != 1:
            raise UsageError("single mode expands exactly one letter")
        coefficients = expand_single(word[0])
        if args.json:
            terms = [
                {"direction": i + 1, "coeff": c.to_records()}
                for i, c in enumerate(coefficients)
            ]
            _emit_json(
                {
                    "command": "expand",
                    "mode": "single",
                    "dim": dimension,
                    "word": [list(a) for a in word],
                    "terms": terms,
                }
            )
        else:
            print("mode: single")
            print(f"word: {_format_word(word)}")
            for i, coeff in enumerate(coefficients):
                print(f"direction {i + 1}: {coeff}")
        return 0

    if args.mode == "sequence":
        expansion = expand_word_sequence(word)
        items = sorted(expansion.items())
        if args.json:
            terms = [{"k": list(k), "coeff": c.to_records()} for k, c in items]
            _emit_json(
                {
                    "command": "expand",
                    "mode": "sequence",
                    "dim": dimension,
                    "word": [list(a) for a in word],
                    "terms": terms,
                }
            )
        else:
            print("mode: sequence")
            print(f"word: {_format_word(word)}")
            for k, coeff in items:
                print(f"k={_format_point(k)}: {coeff}")
        return 0

    grouped = expand_word_grouped(word)
    if args.json:
        _emit_json(
            {
                "command": "expand",
                "mode": "grouped",
                "dim": dimension,
                "word": [list(a) for a in word],
                "word_length": grouped.word_length,
                "terms": grouped.to_records(),
            }
        )
    else:
        print("mode: grouped")
        print(f"word: {_format_word(word)}")
        for q, coeff in sorted(grouped.terms.items()):
            print(f"q={_format_point(q)}: {coeff}")
    return 0


def _cmd_fdeg(args: argparse.Namespace) -> int:
    dimension = _require_dim(args)
    poly = lower(parse(args.expression, dimension), dimension)
    if not poly:
        record = {"fdeg": "-inf", "witness": [], "refuted_length": 0, "exhaustive": True}
        if args.json:
            _emit_json(
                {
                    "command": "fdeg",
                    "dim": dimension,
                    "expression": args.expression,
                    "box": args.box,
                    "budget": args.budget,
                    "report": record,
                    "polyfract": [],
                }
            )
        else:
            print("fdeg: -inf")
            print("the expression is the zero polynomial")
        return 0
    report = fdeg_general(poly, direction_box=args.box, max_extra=args.budget)
    if args.json:
        _emit_json(
            {
                "command": "fdeg",
                "dim": dimension,
                "expression": args.expression,
                "box": args.box,
                "budget": args.budget,
                "report": report.to_record(),
                "polyfract": poly.to_records(),
            }
        )
    else:
        print(f"fdeg: {report.fdeg_standard}")
        if report.witness_word:
            print(f"witness: {_format_word(report.witness_word)}")
        else:
            print("witness: (empty word)")
        scope = "all" if report.exhaustive else "sampled"
        print(
            f"refuted: {report.words_refuted} {scope} words of length "
            f"{report.annihilation_checked_to}"
        )
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    dimension = _require_dim(args)
    poly = lower(parse(args.expression, dimension), dimension)
    count = poly.count()
    if args.json:
        _emit_json(
            {
                "command": "reconstruct",
                "dim": dimension,
                "expression": args.expression,
                "count": "-inf" if count == NEG_INFINITY else count,
                "polyfract": poly.to_records(),
            }
        )
    else:
        print(f"polyfract: {poly}")
        print(f"count: {count}")
    return 0


def _cmd_apply(args: argparse.Namespace) -> int:
    dimension = _require_dim(args)
    if bool(args.at) == bool(args.window):
        raise UsageError("apply needs exactly one of --at or --window")
    word = _parse_word_text(args.word, dimension)
    poly = lower(parse(args.expression, dimension), dimension)
    operator = word_operator(word)
    func = IntegerFunction.from_polyfract(poly)
    if args.at:
        x = _parse_point_text(args.at, dimension)
        value = apply(operator, func, x)
        if args.json:
            _emit_json(
                {
                    "command": "apply",
                    "dim": dimension,
                    "word": [list(a) for a in word],
                    "expression": args.expression,
                    "at": list(x),
                    "value": value,
                }
            )
        else:
            print(f"value at {_format_point(x)}: {value}")
        return 0
    try:
        lo_text, hi_text = args.window.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise UsageError(f"--window {args.window!r} must look like LO:HI") from None
    if lo > hi:
        raise UsageError(f"--window {args.window!r} is empty")
    values = [
        {"x": list(x), "value": apply(operator, func, x)}
        for x in itertools.product(range(lo, hi + 1), repeat=dimension)
    ]
    if args.json:
        _emit_json(
            {
                "command": "apply",
                "dim": dimension,
                "word": [list(a) for a in word],
                "expression": args.expression,
                "window": [lo, hi],
                "values": values,
            }
        )
    else:
        for entry in values:
            print(f"{_format_point(entry['x'])}: {entry['value']}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_identity(args.identity, trials=args.trials, seed=args.seed)
    if args.json:
        _emit_json(report.to_record())
    else:
        print(f"identity: {report.identity_id}")
        print(f"instances: {report.instances_checked}")
        print(f"verdict: {report.verdict}")
        print(f"notes: {report.notes}")
        shown = report.failures[:5]
        for failure in shown:
            print(f"failure: inputs={failure['inputs']} lhs={failure['lhs']} rhs={failure['rhs']}")
        if len(report.failures) > len(shown):
            print(f"... and {len(report.failures) - len(shown)} more failures")
    return 0 if report.verdict == "pass" else 1


def _cmd_list_identities(args: argparse.Namespace) -> int:
    identities = available_identities()
    if args.json:
        _emit_json([{"id": name, "description": desc} for name, desc in identities])
    else:
        width = max(len(name) for name, _ in identities)
        for name, description in identities:
            print(f"{name:<{width}}  {description}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared:
    parsing reads it and never changes it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dim", type=int, default=None, help="lattice dimension N")
    common.add_argument("--json", action="store_true", help="emit deterministic JSON")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")

    parser = argparse.ArgumentParser(
        prog="deltacalc",
        description="Exact difference-operator calculus on integer lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser(
        "expand", parents=[common], help="rewrite a word over the standard directions"
    )
    expand.add_argument(
        "--mode",
        choices=("single", "grouped", "sequence", "cyclic"),
        default="grouped",
    )
    expand.add_argument("--word", help='difference word, e.g. "(1,0);(2,1)"')
    expand.add_argument("--multipliers", help="positive multipliers for cyclic mode, e.g. 2,3")
    expand.add_argument("--step", help="direction for cyclic mode, e.g. (1,0)")

    fdeg_parser = sub.add_parser(
        "fdeg", parents=[common], help="functional degree with witness and refutation"
    )
    fdeg_parser.add_argument("expression")
    fdeg_parser.add_argument("--box", type=int, default=2, help="direction box radius")
    fdeg_parser.add_argument(
        "--budget",
        type=int,
        default=500,
        help="max letters in the certified box; beyond it, that many sampled words",
    )

    reconstruct = sub.add_parser(
        "reconstruct", parents=[common], help="binomial-basis form of an expression"
    )
    reconstruct.add_argument("expression")

    apply_parser = sub.add_parser(
        "apply", parents=[common], help="apply a difference word to an expression"
    )
    apply_parser.add_argument("expression")
    apply_parser.add_argument("--word", required=True, help='e.g. "(1,0);(0,1)"')
    apply_parser.add_argument("--at", help="evaluation point, e.g. (1,2)")
    apply_parser.add_argument("--window", help="evaluate over [LO,HI]^N, written LO:HI")

    verify = sub.add_parser("verify", parents=[common], help="run one identity suite")
    verify.add_argument("identity")
    verify.add_argument("--trials", type=int, default=100)

    sub.add_parser("list-identities", parents=[common], help="show the identity registry")
    return parser


_HANDLERS = {
    "expand": _cmd_expand,
    "fdeg": _cmd_fdeg,
    "reconstruct": _cmd_reconstruct,
    "apply": _cmd_apply,
    "verify": _cmd_verify,
    "list-identities": _cmd_list_identities,
}


# Option names are dashes, lowercase letters and an optional "=value";
# no expression looks like that, since every variable carries an index.
_OPTION = re.compile(r"--?[a-z][a-z-]*(=.*)?")


def _dashed_arguments(argv: list[str]) -> list[str]:
    """Keep argparse from reading an argument that starts with "-" as an
    unknown option: an option value, as in "--window -3:3", is joined to
    its option, and an expression such as "-5*x1^3" moves behind a "--"."""
    cut = argv.index("--") if "--" in argv else len(argv)
    kept, moved = [], []
    takes_value = False
    for arg in argv[:cut]:
        is_option = bool(_OPTION.fullmatch(arg))
        if is_option or not arg.startswith("-"):
            kept.append(arg)
        elif takes_value:
            kept[-1] += "=" + arg
        else:
            moved.append(arg)
        is_flag = any(flag.startswith(arg) for flag in ("-h", "--help", "--json"))
        takes_value = is_option and "=" not in arg and not is_flag
    rest = moved + argv[cut + 1 :]
    return kept + ["--"] + rest if rest else kept


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_dashed_arguments(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
