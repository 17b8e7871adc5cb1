"""Parser and evaluator for the polynomial calculator expressions.

Grammar (whitespace insignificant):

    expr     := term (('+' | '-') term)*          one n-ary "sum" node
    term     := factor ('*' factor)*               one n-ary "product" node
    factor   := atom ('^' nat)?
    atom     := rational | ident | opcall | '(' expr ')'
    opcall   := ('d' | 'int' | 'K' | 'Kinv' | 'J' | 'Jinv') '(' expr ')'
              | 's' '(' expr ',' ident ')'
    rational := nat ('/' nat)?

Variables are the canonical names x, y, z, w; operator names are reserved.
'-' evaluates only over a semiring with negatives.  `s(e, x)` integrates the
coordinate bundle that has `e` in the slot of variable x and zero elsewhere.

A chain of '+'/'-' terms or of '*' factors is one node, evaluated by
iteration, so a long chain costs no recursion; parentheses and operator calls
nest at most `MAX_NESTING` deep, and deeper input is a ParseError.

Products and powers share one work budget per expression, `WORK_LIMIT`
coefficient-word products (powers by repeated squaring), charged before each
multiplication runs; an expression over budget is an EvalError, so no input
makes the calculator run for long.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import polyform as pf
from .polyform import Polynomial, PolyBundle
from .rig import Rig

OP_NAMES = ("d", "int", "K", "Kinv", "J", "Jinv", "s")
# the operators that map a polynomial to a polynomial of the same variables
SCALINGS = {"K": pf.K_op, "Kinv": pf.K_inv_op, "J": pf.J_op, "Jinv": pf.J_inv_op}
VAR_NAMES = pf.DEFAULT_NAMES
WORK_LIMIT = 100_000  # coefficient-word products per expression
MAX_NESTING = 100  # parentheses and operator calls, one inside another


class ParseError(Exception):
    """Malformed expression; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NegativeNotSupported(Exception):
    """'-' used while evaluating over a semiring without negatives."""


class EvalError(Exception):
    """Structurally valid expression that has no value (for example, a
    coordinate bundle fed into another operator)."""


# -- AST --------------------------------------------------------------------


class Node(NamedTuple):
    kind: str  # const | var | sum | product | pow | op | s
    # a sum's payload holds (negated, term) pairs, a product's its factors
    payload: tuple


def _tokenize(source: str):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("nat", int(source[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and source[j].isalnum():
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input starting at {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        terms = [(False, self.term())]
        while self.peek()[0] in ("+", "-"):
            terms.append((self.advance()[0] == "-", self.term()))
        return terms[0][1] if len(terms) == 1 else Node("sum", tuple(terms))

    def term(self) -> Node:
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.advance()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Node("product", tuple(factors))

    def nested(self, tok) -> Node:
        """The expression inside the parenthesis or operator call opened at tok."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok[2])
        self.depth += 1
        node = self.expr()
        self.depth -= 1
        return node

    def factor(self) -> Node:
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("nat")
            node = Node("pow", (node, tok[1]))
        return node

    def atom(self) -> Node:
        tok = self.advance()
        if tok[0] == "nat":
            num = tok[1]
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("nat")
                if den_tok[1] == 0:
                    raise ParseError("zero denominator", den_tok[2])
                return Node("const", (Fraction(num, den_tok[1]),))
            return Node("const", (Fraction(num),))
        if tok[0] == "(":
            node = self.nested(tok)
            self.expect(")")
            return node
        if tok[0] == "name":
            name = tok[1]
            if name in OP_NAMES:
                arg = self.nested(self.expect("("))
                if name == "s":
                    self.expect(",")
                    var_tok = self.expect("name")
                    if var_tok[1] not in VAR_NAMES:
                        raise ParseError(f"unknown variable {var_tok[1]!r}", var_tok[2])
                    self.expect(")")
                    return Node("s", (arg, var_tok[1]))
                self.expect(")")
                return Node("op", (name, arg))
            if name in VAR_NAMES:
                return Node("var", (name,))
            raise ParseError(f"unknown identifier {name!r}", tok[2])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_expr(source: str) -> Node:
    """Parse a calculator expression into its AST."""
    return _Parser(source).parse()


# -- evaluation -------------------------------------------------------------


def _variables(node: Node) -> set:
    """The variable names the expression mentions."""
    seen, todo = set(), [node]
    while todo:
        node = todo.pop()
        if node.kind in ("var", "s"):
            seen.add(node.payload[-1])
        # a sum's payload holds (negated, term) pairs
        items = (term for _, term in node.payload) if node.kind == "sum" else node.payload
        todo.extend(item for item in items if isinstance(item, Node))
    return seen


def infer_arity(node: Node) -> int:
    """Smallest canonical variable prefix covering the expression; at least 1."""
    indices = [VAR_NAMES.index(v) for v in _variables(node)]
    return max(indices, default=0) + 1


def _size(p: Polynomial) -> int:
    """Terms plus 64-bit words of the coefficients in lowest terms, read from `num` and `den`."""
    den = p.den
    return sum(1 + ((n // (g := gcd(n, den))).bit_length() + (den // g).bit_length()) // 64 for n in p.num.values())


def eval_expr(ast: Node, semiring: Rig, arity: int | None = None):
    """Evaluate to a Polynomial, or a PolyBundle when the outermost operator is
    `d` on a multivariate expression."""
    needed = infer_arity(ast)
    if arity is None:
        arity = needed
    elif arity < 1:
        raise EvalError(f"the variable count must be at least 1, not {arity}")
    elif needed > arity:
        raise EvalError(f"variable {VAR_NAMES[needed - 1]!r} does not fit in {arity} variable(s)")

    budget = WORK_LIMIT

    def product(p: Polynomial, q: Polynomial) -> Polynomial:
        nonlocal budget
        budget -= _size(p) * _size(q)
        if budget < 0:
            raise EvalError(f"the expression needs more than {WORK_LIMIT} coefficient products; make it smaller")
        return p * q

    def power(p: Polynomial, n: int) -> Polynomial:
        acc = Polynomial.one(semiring, arity)
        while n:
            if n & 1:
                acc = product(acc, p)
            n >>= 1
            if n:
                p = product(p, p)
        return acc

    def as_poly(node: Node) -> Polynomial:
        value = evaluate(node)
        if isinstance(value, PolyBundle):
            raise EvalError("a coordinate bundle cannot feed another operator")
        return value

    def evaluate(node: Node):
        kind = node.kind
        if kind == "const":
            (q,) = node.payload
            # the rig's own image of n/d
            c = semiring.nat_value(q.numerator)
            if q.denominator > 1:
                c = semiring.mul(c, semiring.nat_inverse(q.denominator))
            return Polynomial.const(semiring, arity, c)
        if kind == "var":
            return Polynomial.variable(semiring, arity, VAR_NAMES.index(node.payload[0]))
        if kind == "sum":
            if not semiring.has_negatives and any(negated for negated, _ in node.payload):
                raise NegativeNotSupported(
                    f"'-' is not available over {semiring.name}; use the rational field"
                )
            (_, acc), *rest = node.payload  # the first term is never negated
            acc = as_poly(acc)
            for negated, term in rest:
                p = as_poly(term)
                acc = acc + (p.scale(semiring.neg(semiring.one)) if negated else p)
            return acc
        if kind == "product":
            acc, *rest = node.payload
            acc = as_poly(acc)
            for factor in rest:
                acc = product(acc, as_poly(factor))
            return acc
        if kind == "pow":
            return power(as_poly(node.payload[0]), node.payload[1])
        if kind == "s":
            arg, var = node.payload
            p = as_poly(arg)
            i = VAR_NAMES.index(var)
            comps = [Polynomial.zero(semiring, arity) for _ in range(arity)]
            comps[i] = p
            return pf.s_op(PolyBundle(tuple(comps)))
        if kind == "op":
            name, arg_node = node.payload
            p = as_poly(arg_node)
            if name == "d":
                b = pf.grad(p)
                return b.components[0] if arity == 1 else b
            if name == "int":
                if arity != 1:
                    raise EvalError("int needs a one-variable expression")
                return pf.s_op(PolyBundle((p,)))
            return SCALINGS[name](p)
        raise EvalError(f"unknown node kind {kind!r}")

    return evaluate(ast)
