"""Logical/arithmetic expressions over controller parameters.

Grammar (in precedence order, loosest first):

    or          := and ('||' and)*
    and         := unary-not ('&&' unary-not)*
    comparison  := additive (('<' '<=' '>' '>=' '==' '!=') additive)?
    additive    := term (('+' | '-') term)*
    term        := unary (('*' | '/') unary)*
    unary       := '-' unary | '!' unary | primary
    primary     := number | name | name '(' expr ')' | '(' expr ')'

Names are dot-namespaced identifiers resolved lazily at evaluation time
through a resolver callable.  The only functions are norm(v) and abs(x);
vector parameter values are legal only as the argument of norm().
Offsets in error messages are 1-based.
"""

import math

import numpy as np

_COMPARATORS = ("<=", ">=", "==", "!=", "<", ">")
_FUNCTIONS = ("norm", "abs")


class ExpressionError(ValueError):
    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} at offset {offset}"
        super().__init__(message)
        self.offset = offset


class EvaluationError(ValueError):
    pass


class Expression:
    """Compiled expression: evaluate against a name resolver."""

    def __init__(self, text, root, variables):
        self.text = text
        self._root = root
        self.variables = tuple(sorted(variables))

    def eval(self, resolver):
        """resolver(name) -> scalar/bool/vector; raise KeyError for unknown."""
        return self._root(resolver)

    def __repr__(self):
        return f"Expression({self.text!r})"


def parse_expression(text):
    tokens = _tokenize(text)
    parser = _Parser(text, tokens)
    root = parser.parse()
    return Expression(text, root, parser.variables)


# -- tokenizer -------------------------------------------------------------

def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < n and (text[j].isdigit() or text[j] == "."
                             or text[j] in "eE"
                             or (j > i and text[j] in "+-" and text[j - 1] in "eE")):
                if text[j] in "eE":
                    seen_e = True
                j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"bad number {text[i:j]!r}", i + 1) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._"):
                j += 1
            name = text[i:j]
            if name.endswith("."):
                raise ExpressionError(f"bad identifier {name!r}", i + 1)
            tokens.append(("name", name, i))
            i = j
            continue
        matched = False
        for op in ("&&", "||") + _COMPARATORS:
            if text.startswith(op, i):
                tokens.append(("op", op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if c in "+-*/()!":
            tokens.append(("op", c, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {c!r}", i + 1)
    tokens.append(("end", None, n))
    return tokens


# -- recursive descent -------------------------------------------------------

class _Parser:
    def __init__(self, text, tokens):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.variables = set()

    def parse(self):
        node = self._or()
        kind, _, off = self.tokens[self.pos]
        if kind != "end":
            raise ExpressionError("unexpected trailing input", off + 1)
        return node

    def _peek(self):
        return self.tokens[self.pos]

    def _advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect_op(self, op):
        kind, val, off = self._peek()
        if kind == "op" and val == op:
            self._advance()
            return
        raise ExpressionError(f"expected {op!r}", off + 1)

    def _or(self):
        node = self._and()
        while self._match("||"):
            rhs = self._and()
            node = _make_or(node, rhs)
        return node

    def _and(self):
        node = self._comparison()
        while self._match("&&"):
            rhs = self._comparison()
            node = _make_and(node, rhs)
        return node

    def _comparison(self):
        node = self._additive()
        kind, val, _ = self._peek()
        if kind == "op" and val in _COMPARATORS:
            self._advance()
            rhs = self._additive()
            node = _make_compare(val, node, rhs)
        return node

    def _additive(self):
        node = self._term()
        while True:
            if self._match("+"):
                node = _make_arith(np.add, node, self._term())
            elif self._match("-"):
                node = _make_arith(np.subtract, node, self._term())
            else:
                return node

    def _term(self):
        node = self._unary()
        while True:
            if self._match("*"):
                node = _make_arith(np.multiply, node, self._unary())
            elif self._match("/"):
                node = _make_arith(np.divide, node, self._unary())
            else:
                return node

    def _unary(self):
        if self._match("-"):
            inner = self._unary()
            return lambda r: -_as_number(inner(r))
        if self._match("!"):
            inner = self._unary()
            return lambda r: not _truthy(inner(r))
        return self._primary()

    def _primary(self):
        kind, val, off = self._peek()
        if kind == "num":
            self._advance()
            return lambda r, v=val: v
        if kind == "name":
            self._advance()
            nk, nv, _ = self._peek()
            if nk == "op" and nv == "(":
                if val not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {val!r}", off + 1)
                self._advance()
                arg = self._or()
                self._expect_op(")")
                if val == "norm":
                    return lambda r: _norm(arg(r))
                return lambda r: abs(_as_number(arg(r)))
            self.variables.add(val)
            return _make_lookup(val)
        if kind == "op" and val == "(":
            self._advance()
            node = self._or()
            self._expect_op(")")
            return node
        raise ExpressionError("expected a value", off + 1)

    def _match(self, op):
        kind, val, _ = self._peek()
        if kind == "op" and val == op:
            self._advance()
            return True
        return False


def _make_lookup(name):
    def node(resolver):
        try:
            return resolver(name)
        except KeyError:
            raise EvaluationError(f"unresolved name {name!r}") from None
    return node


def _make_or(a, b):
    return lambda r: _truthy(a(r)) or _truthy(b(r))


def _make_and(a, b):
    return lambda r: _truthy(a(r)) and _truthy(b(r))


def _make_compare(op, a, b):
    def node(r):
        x, y = _as_number(a(r)), _as_number(b(r))
        if op == "<":
            return x < y
        if op == "<=":
            return x <= y
        if op == ">":
            return x > y
        if op == ">=":
            return x >= y
        if op == "==":
            return x == y
        return x != y
    return node


def _make_arith(fn, a, b):
    return lambda r: float(fn(_as_number(a(r)), _as_number(b(r))))


def _norm(value):
    """Euclidean norm, bit-identical to np.linalg.norm.  The 1-D ``@``
    keeps the GIL, where np.linalg.norm and np.dot release it through BLAS
    and so hand the servo thread's time slice to another thread."""
    v = np.asarray(value, dtype=float).ravel()
    return math.sqrt(float(v @ v))


def _as_number(value):
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float, np.floating)):
        return float(value)
    arr = np.asarray(value)
    if arr.ndim == 0:
        return float(arr)
    raise EvaluationError(
        "vector values are only allowed inside norm()")


def _truthy(value):
    if isinstance(value, bool):
        return value
    return _as_number(value) != 0.0
