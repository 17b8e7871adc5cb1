"""One-pass evaluator for the polynomial calculator expressions.

Grammar (whitespace insignificant):

    expr     := term (('+' | '-') term)*          summed in one loop
    term     := factor ('*' factor)*               multiplied in one loop
    factor   := atom ('^' nat)?
    atom     := rational | ident | opcall | '(' expr ')'
    opcall   := ('d' | 'int' | 'K' | 'Kinv' | 'J' | 'Jinv') '(' expr ')'
              | 's' '(' expr ',' ident ')'
    rational := nat ('/' nat)?

Variables are the canonical names x, y, z, w, so an expression has 1 to 4
variables; operator names are reserved.
'-' evaluates only over a semiring with negatives.  `s(e, x)` integrates the
coordinate bundle that has `e` in the slot of variable x and zero elsewhere.

The expression is evaluated as it is read: each grammar method of
`_Evaluator` returns the value of what it read, and no syntax tree is built.
The variable count is read from the tokens before the first value.  A chain
of '+'/'-' terms or of '*' factors is one loop, so a long chain costs no
recursion; parentheses and operator calls nest at most `MAX_NESTING` deep,
and deeper input is a ParseError.  A constant n/d is brought to lowest terms
before the semiring sees it, so `4/2` needs no inverse.

Products and powers share one work budget per expression, `WORK_LIMIT`
coefficient-word products (powers by repeated squaring), charged before each
multiplication runs; an expression over budget is an EvalError, so no input
makes the calculator run for long.

A number is a run of ASCII digits, at most `MAX_DIGITS` long, and a result
coefficient has at most `MAX_DIGITS` digits in its numerator and in its
denominator, as has a result exponent: the calculator refuses a longer one
itself, the same on every interpreter, before Python's own limit of
integer-to-text conversion would.

Of several faults, the one reported is an unreadable character or an
overlong number first, then the variable count, then the first that reading
reaches: a '-' without negatives at its sign, `int` over several variables
at its name, a bundle where it is read as an operand, a syntax fault at its
token, and the budget at the product that exceeds it; an overlong result
coefficient, then exponent, is reported last.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import polyform as pf
from .polyform import Polynomial, PolyBundle
from .rig import Rig

OP_NAMES = ("d", "int", "K", "Kinv", "J", "Jinv", "s")
# the operators that map a polynomial to a polynomial of the same variables
SCALINGS = {"K": pf.K_op, "Kinv": pf.K_inv_op, "J": pf.J_op, "Jinv": pf.J_inv_op}
VAR_NAMES = pf.DEFAULT_NAMES
WORK_LIMIT = 100_000  # coefficient-word products per expression
MAX_NESTING = 100  # parentheses and operator calls, one inside another
# the longest number read or printed, CPython's default limit of int/str conversion, checked here so
# that every interpreter answers alike; a number has more digits exactly when it is at least TOO_LONG
MAX_DIGITS = 4300
TOO_LONG = 10**MAX_DIGITS


class ParseError(ValueError):
    """Malformed expression; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ValueError):
    """Well-formed expression without a value over the chosen semiring and
    variable count: a count below 1 or above the four names, a variable the
    count does not reach, '-' without negatives, a coordinate bundle fed into
    another operator, a product over the work budget, or a result coefficient
    or exponent too long to print."""


def _tokenize(source: str):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"a number longer than {MAX_DIGITS} digits", i)
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


def _size(p: Polynomial) -> int:
    """Terms plus 64-bit words of the coefficients in lowest terms, read from `num` and `den`."""
    den = p.den
    return sum(1 + ((n // (g := gcd(n, den))).bit_length() + (den // g).bit_length()) // 64 for n in p.num.values())


class _Evaluator:
    """Recursive descent over the tokens of one expression; each grammar method returns the value it read."""

    def __init__(self, tokens: list, rig: Rig, arity: int):
        self.tokens, self.pos, self.depth = tokens, 0, 0
        self.rig, self.arity, self.budget = rig, arity, WORK_LIMIT

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

    @staticmethod
    def operand(value) -> Polynomial:
        if isinstance(value, PolyBundle):
            raise EvalError("a coordinate bundle cannot feed another operator")
        return value

    def product(self, p: Polynomial, q: Polynomial) -> Polynomial:
        self.budget -= _size(p) * _size(q)
        if self.budget < 0:
            raise EvalError(f"the expression needs more than {WORK_LIMIT} coefficient products; make it smaller")
        return p * q

    def evaluate(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input starting at {tok[1]!r}", tok[2])
        return value

    def expr(self):
        value = self.term()
        while (sign := self.peek()[0]) in ("+", "-"):
            self.advance()
            if sign == "-" and not self.rig.has_negatives:
                raise EvalError(f"'-' is not available over {self.rig.name}; use the rational field")
            acc, p = self.operand(value), self.operand(self.term())
            value = acc + (p.scale(self.rig.neg(self.rig.one)) if sign == "-" else p)
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = self.product(self.operand(value), self.operand(self.factor()))
        return value

    def factor(self):
        value = self.atom()
        if self.peek()[0] != "^":
            return value
        self.advance()
        p, n = self.operand(value), self.expect("nat")[1]
        acc = Polynomial.one(self.rig, self.arity)
        while n:
            if n & 1:
                acc = self.product(acc, p)
            n >>= 1
            if n:
                p = self.product(p, p)
        return acc

    def nested(self, tok):
        """The value inside the parenthesis or operator call opened at tok."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok[2])
        self.depth += 1
        value = self.expr()
        self.depth -= 1
        return value

    def atom(self):
        tok = self.advance()
        rig, arity = self.rig, self.arity
        if tok[0] == "nat":
            q = Fraction(tok[1])
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("nat")
                if den_tok[1] == 0:
                    raise ParseError("zero denominator", den_tok[2])
                q = Fraction(tok[1], den_tok[1])
            # the rig's own image of n/d, in lowest terms
            c = rig.nat_value(q.numerator)
            if q.denominator > 1:
                c = rig.mul(c, rig.nat_inverse(q.denominator))
            return Polynomial.const(rig, arity, c)
        if tok[0] == "(":
            value = self.nested(tok)
            self.expect(")")
            return value
        name = tok[1]
        if tok[0] != "name":
            raise ParseError(f"unexpected token {name!r}", tok[2])
        if name in VAR_NAMES:
            return Polynomial.variable(rig, arity, VAR_NAMES.index(name))
        if name not in OP_NAMES:
            raise ParseError(f"unknown identifier {name!r}", tok[2])
        if name == "int" and arity != 1:
            raise EvalError("int needs a one-variable expression")
        p = self.operand(self.nested(self.expect("(")))
        slot = 0  # int(e) is s(e, x) over one variable
        if name == "s":
            self.expect(",")
            var_tok = self.expect("name")
            if var_tok[1] not in VAR_NAMES:
                raise ParseError(f"unknown variable {var_tok[1]!r}", var_tok[2])
            slot = VAR_NAMES.index(var_tok[1])
        self.expect(")")
        if name == "d":
            b = pf.grad(p)
            return b.components[0] if arity == 1 else b
        if name in ("s", "int"):
            comps = [Polynomial.zero(rig, arity) for _ in range(arity)]
            comps[slot] = p
            return pf.s_op(PolyBundle(tuple(comps)))
        return SCALINGS[name](p)


def eval_expr(source: str, semiring: Rig, arity: int | None = None):
    """Evaluate the expression `source` to a Polynomial, or a PolyBundle when
    the outermost operator is `d` on a multivariate expression.  Without
    `arity`, the variables are the smallest canonical prefix covering those
    the expression names, at least one."""
    tokens = _tokenize(source)
    needed = 1 + max((VAR_NAMES.index(t[1]) for t in tokens if t[0] == "name" and t[1] in VAR_NAMES), default=0)
    if arity is None:
        arity = needed
    elif arity < 1:
        raise EvalError(f"the variable count must be at least 1, not {arity}")
    elif arity > len(VAR_NAMES):
        names = ", ".join(VAR_NAMES)
        raise EvalError(f"the variable count must be at most {len(VAR_NAMES)}, the names {names}, not {arity}")
    elif needed > arity:
        raise EvalError(f"variable {VAR_NAMES[needed - 1]!r} does not fit in {arity} variable(s)")
    value = _Evaluator(tokens, semiring, arity).evaluate()
    for p in getattr(value, "components", (value,)):
        if any(max(abs(c.numerator), c.denominator) >= TOO_LONG for c in p.terms.values()):
            raise EvalError(f"a coefficient of the result has more than {MAX_DIGITS} digits")
        if any(e >= TOO_LONG for exps in p.num for e in exps):
            raise EvalError(f"an exponent of the result has more than {MAX_DIGITS} digits")
    return value
