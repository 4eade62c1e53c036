"""Task-definition language: declare a bit-string space, predicates as
propositional formulas over its bits, optionally an explicit statement
universe, and named tasks.

Format (UTF-8, '#' starts a line comment):

    width 3;
    pred p := b0 & !b1;          # b0 is the leftmost bit
    statement m1 = {p, q};       # explicit universe (optional)
    task alpha {
      situations { {p}, 01- }    # names, inline sets, or bit patterns
      decisions { m1 }
    }

Tokens, each matched by one named group of ``_TOKEN``: names (a letter or
'_', then letters, ASCII digits or '_'), integers (ASCII digits), bit
patterns (digits and '-' with at least one '-'; a digit run is a pattern
too where a pattern is expected), punctuation ``:= ; = { } ( ) , ! & |``,
whitespace and comments.  Any other character, a non-ASCII digit such as
'²' included, is a lexical error.

Connectives ! & | with precedence ! > & > |; unicode aliases ¬ ∧ ∨ are
accepted.  A formula may nest at most MAX_DEPTH levels: each connective
and each pair of parentheses on the way down to a bit is one, the bit too.
Bit patterns have one character per position ('0', '1' or '-'); each fixed
position is resolved to the predicate whose truth table is exactly that bit
literal.  The printer emits a canonical form; parse(print(doc)) is
structurally the identity.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from .errors import WeaklabError
from .lattice import (
    DEFAULT_LANGUAGE_CAP,
    Language,
    Predicate,
    StateSpace,
    Statement,
    Vocabulary,
)
from .tasks import VTask, make_task

MAX_WIDTH = 16
# keeps the recursive parser, truth-table evaluator (_eval_mask) and
# printer far from Python's recursion limit
MAX_DEPTH = 100


class SpecError(WeaklabError):
    """Parse or compile failure, with 1-based location."""

    def __init__(self, message: str, line: int, col: int, category: str = "syntax"):
        super().__init__(f"{line}:{col}: {category}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.category = category


class CompileError(SpecError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(message, line, col, category="compile")


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class BitRef:
    index: int


@dataclass(frozen=True)
class Not:
    arg: "Expr"


@dataclass(frozen=True)
class And:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Or:
    lhs: "Expr"
    rhs: "Expr"


Expr = BitRef | Not | And | Or


@dataclass(frozen=True)
class NameElem:
    name: str


@dataclass(frozen=True)
class SetElem:
    members: tuple[str, ...]  # canonical: predicate definition order


@dataclass(frozen=True)
class PatternElem:
    text: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


Elem = NameElem | SetElem | PatternElem


@dataclass(frozen=True)
class PredDef:
    name: str
    expr: Expr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class StatementDef:
    name: str
    members: tuple[str, ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class TaskDef:
    name: str
    situations: tuple[Elem, ...]
    decisions: tuple[Elem, ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SpecDocument:
    width: int
    preds: tuple[PredDef, ...]
    statements: tuple[StatementDef, ...]
    tasks: tuple[TaskDef, ...]


# ---------------------------------------------------------------------------
# lexer


_TOKEN = re.compile(
    r"(?P<skip>[ \t\r]+|#[^\n]*)"
    r"|(?P<newline>\n)"
    # [^\W\d] also admits numerals such as '²'; _lex ends a name there
    r"|(?P<name>[^\W\d](?:[^\W\d]|[0-9])*)"
    r"|(?P<pattern>[0-9]*-[0-9-]*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<punct>:=|[;={}(),!&|¬∧∨])"
)
_ALIASES = {"¬": "!", "∧": "&", "∨": "|"}
_NAME_CHARS = frozenset("0123456789_")
_BITREF = re.compile(r"b([0-9]+)")


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'name' | 'int' | 'pattern' | punctuation | ':=' | 'eof'
    text: str
    line: int
    col: int


def _at(t: _Tok, message: str, category: str = "syntax") -> SpecError:
    return SpecError(message, t.line, t.col, category)


def _found(t: _Tok) -> str:
    return repr(t.text) if t.text else "end of input"


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        kind, end = (m.lastgroup, m.end()) if m else (None, pos)
        if kind == "name" and not m.group().isascii():
            end = pos + next(
                (k for k, c in enumerate(m.group())
                 if not (c.isalpha() or c in _NAME_CHARS)),
                end - pos,
            )
        col = pos - line_start + 1
        if end == pos:
            ch = text[pos]
            message = "expected ':='" if ch == ":" else f"unexpected character {ch!r}"
            raise SpecError(message, line, col, "lexical")
        value = text[pos:end]
        if kind == "newline":
            line, line_start = line + 1, end
        elif kind == "punct":
            value = _ALIASES.get(value, value)
            toks.append(_Tok(value, value, line, col))
        elif kind != "skip":
            toks.append(_Tok(kind, value, line, col))
        pos = end
    toks.append(_Tok("eof", "", line, pos - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# parser


_KEYWORDS = {"width", "pred", "statement", "task", "situations", "decisions"}
# binary connectives, loosest first; '!' binds tighter than all of them
_BINARY = (("|", Or), ("&", And))


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0
        self.width: int | None = None
        self.names: dict[str, str] = {}  # name -> 'pred' | 'statement' | 'task'
        self.preds: dict[str, int] = {}  # predicate name -> definition index

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise _at(t, f"expected {what or kind}, found {_found(t)}")
        return self.next()

    def parse_document(self) -> SpecDocument:
        preds: list[PredDef] = []
        statements: list[StatementDef] = []
        tasks: list[TaskDef] = []
        while self.peek().kind != "eof":
            t = self.next()
            if t.kind != "name":
                raise _at(t, f"expected declaration, found {t.text!r}")
            if t.text == "width":
                if self.width is not None:
                    raise _at(t, "duplicate width declaration")
                num = self.expect("int", "width value")
                self.width = int(num.text)
                if not 1 <= self.width <= MAX_WIDTH:
                    raise _at(num, f"width must be between 1 and {MAX_WIDTH}",
                              "width-violation")
                self.expect(";")
                continue
            if t.text not in ("pred", "statement", "task"):
                raise _at(t, f"unknown declaration {t.text!r}")
            if self.width is None:
                raise _at(t, "width must be declared before this")
            name = self._decl_name(t.text)
            if t.text == "pred":
                self.expect(":=")
                expr = self._expr()[0]
                preds.append(PredDef(name.text, expr, (name.line, name.col)))
                self.preds[name.text] = len(self.preds)
                self.expect(";")
            elif t.text == "statement":
                self.expect("=")
                members = self._name_set()
                self.expect(";")
                statements.append(
                    StatementDef(name.text, members, (name.line, name.col))
                )
            else:
                self.expect("{")
                situations = self._elems("situations")
                decisions = self._elems("decisions")
                self.expect("}")
                tasks.append(
                    TaskDef(name.text, situations, decisions, (name.line, name.col))
                )
        if self.width is None:
            raise _at(self.peek(), "missing width declaration")
        return SpecDocument(self.width, tuple(preds), tuple(statements), tuple(tasks))

    def _decl_name(self, kind: str) -> _Tok:
        t = self.expect("name", f"{kind} name")
        if t.text in _KEYWORDS:
            raise _at(t, f"{t.text!r} is a keyword")
        if _BITREF.fullmatch(t.text):
            raise _at(t, f"{t.text!r} is reserved for bit references")
        if t.text in self.names:
            raise _at(t, f"duplicate name {t.text!r} (already a {self.names[t.text]})")
        self.names[t.text] = kind
        return t

    def _expr(self, level: int = 0, depth: int = 0) -> tuple[Expr, int]:
        """Parse a formula whose connectives bind at least as tightly as
        ``_BINARY[level]`` and return it with its height.  ``depth`` counts
        the '!' and '(' around it; depth plus height stays <= MAX_DEPTH."""
        if level < len(_BINARY):
            op, node = _BINARY[level]
            e, height = self._expr(level + 1, depth)
            while self.peek().kind == op:
                t = self.next()
                rhs, h = self._expr(level + 1, depth)
                e, height = node(e, rhs), max(height, h) + 1
                self._within_depth(depth + height, t)
            return e, height
        t = self.next()
        self._within_depth(depth + 1, t)
        if t.kind == "!":
            e, height = self._expr(level, depth + 1)
            return Not(e), height + 1
        if t.kind == "(":
            e = self._expr(0, depth + 1)
            self.expect(")")
            return e
        if t.kind != "name":
            raise _at(t, f"expected formula atom, found {_found(t)}")
        m = _BITREF.fullmatch(t.text)
        if m is None:
            raise _at(t, f"undefined name {t.text!r} in formula (only bit "
                      "references b0..b{width-1} are allowed)", "undefined-name")
        if int(m[1]) >= self.width:
            raise _at(t, f"bit {t.text} out of range for width {self.width}",
                      "width-violation")
        return BitRef(int(m[1])), 1

    def _within_depth(self, depth: int, t: _Tok) -> None:
        if depth > MAX_DEPTH:
            raise _at(t, f"formula nested deeper than {MAX_DEPTH} levels")

    def _name_set(self) -> tuple[str, ...]:
        """A braced list of distinct predicate names, returned in predicate
        definition order."""
        self.expect("{")
        members: set[str] = set()
        # a '}' ends the set right after '{' or after a name, not after ','
        while self.peek().kind != "}" or members:
            t = self.expect("name", "predicate name")
            if t.text not in self.preds:
                raise _at(t, f"undefined predicate {t.text!r}", "undefined-name")
            if t.text in members:
                raise _at(t, f"duplicate member {t.text!r}")
            members.add(t.text)
            if self.peek().kind != ",":
                break
            self.next()
        self.expect("}")
        return tuple(sorted(members, key=self.preds.__getitem__))

    def _elems(self, keyword: str) -> tuple[Elem, ...]:
        kw = self.expect("name", f"{keyword!r}")
        if kw.text != keyword:
            raise _at(kw, f"expected {keyword!r}")
        brace = self.expect("{")
        out: list[Elem] = []
        while self.peek().kind != "}":
            t = self.peek()
            if t.kind == "{":
                out.append(SetElem(self._name_set()))
            elif t.kind in ("pattern", "int"):
                self.next()
                if not set(t.text) <= {"0", "1", "-"}:
                    raise _at(t, f"malformed bit pattern {t.text!r}")
                if len(t.text) != self.width:
                    raise _at(t, f"pattern {t.text!r} has {len(t.text)} positions, "
                              f"width is {self.width}", "width-violation")
                out.append(PatternElem(t.text, (t.line, t.col)))
            elif t.kind == "name":
                self.next()
                if self.names.get(t.text) != "statement":
                    raise _at(t, f"{t.text!r} is not a declared statement",
                              "undefined-name")
                out.append(NameElem(t.text))
            else:
                raise _at(t, "expected statement name, inline set or bit pattern, "
                          f"found {_found(t)}")
            if self.peek().kind == ",":
                self.next()
        self.expect("}")
        if not out:
            raise _at(brace, "empty element list")
        return tuple(out)


def parse(text: str) -> SpecDocument:
    """Parse and validate; the first error is raised with its location."""
    return _Parser(_lex(text)).parse_document()


# ---------------------------------------------------------------------------
# printer


_PREC = {Or: 1, And: 2, Not: 3, BitRef: 4}


def _print_expr(e: Expr, parent_prec: int = 0, right: bool = False) -> str:
    prec = _PREC[type(e)]
    if isinstance(e, BitRef):
        s = f"b{e.index}"
    elif isinstance(e, Not):
        s = "!" + _print_expr(e.arg, prec)
    else:
        op = " & " if isinstance(e, And) else " | "
        s = _print_expr(e.lhs, prec) + op + _print_expr(e.rhs, prec, right=True)
    if prec < parent_prec or (right and prec == parent_prec):
        return "(" + s + ")"
    return s


def print_document(doc: SpecDocument) -> str:
    """Canonical text; byte-stable and reparseable to an equal document."""
    lines = [f"width {doc.width};"]
    if doc.preds:
        lines.append("")
        for p in doc.preds:
            lines.append(f"pred {p.name} := {_print_expr(p.expr)};")
    if doc.statements:
        lines.append("")
        for s in doc.statements:
            lines.append(f"statement {s.name} = {{{', '.join(s.members)}}};")
    for t in doc.tasks:
        lines.append("")
        lines.append(f"task {t.name} {{")
        lines.append(f"  situations {{ {_print_elems(t.situations)} }}")
        lines.append(f"  decisions {{ {_print_elems(t.decisions)} }}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _print_elems(elems: tuple[Elem, ...]) -> str:
    parts = []
    for e in elems:
        if isinstance(e, NameElem):
            parts.append(e.name)
        elif isinstance(e, SetElem):
            parts.append("{" + ", ".join(e.members) + "}")
        else:
            parts.append(e.text)
    return ", ".join(parts)


# ---------------------------------------------------------------------------
# compiler


@dataclass
class CompiledSpec:
    doc: SpecDocument
    language: Language
    tasks: dict[str, VTask]
    # located "line:col: warning: ..." texts, one per predicate whose
    # truth table an earlier predicate already has
    warnings: tuple[str, ...] = ()


def _literal_mask(width: int, index: int, value: bool = True) -> int:
    """States whose bit ``index`` (leftmost 0) equals ``value``, as a state
    bitmask: runs of 2^(width-1-index) states alternate between 0 and 1."""
    run = 1 << (width - 1 - index)
    full = (1 << (1 << width)) - 1
    ones = ((1 << run) - 1 << run) * (full // ((1 << 2 * run) - 1))
    return ones if value else full & ~ones


def _eval_mask(e: Expr, width: int) -> int:
    """Truth table of a formula as a state bitmask (bit s = state s).

    Bit position i (leftmost 0) of state s has value (s >> (width-1-i)) & 1.
    """
    full = (1 << (1 << width)) - 1
    if isinstance(e, BitRef):
        return _literal_mask(width, e.index)
    if isinstance(e, Not):
        return full & ~_eval_mask(e.arg, width)
    if isinstance(e, And):
        return _eval_mask(e.lhs, width) & _eval_mask(e.rhs, width)
    return _eval_mask(e.lhs, width) | _eval_mask(e.rhs, width)


def compile_document(
    doc: SpecDocument, cap: int = DEFAULT_LANGUAGE_CAP
) -> CompiledSpec:
    """Build the language and the named tasks of a parsed document."""
    width = doc.width
    space = StateSpace.bits(width)
    preds = [Predicate(p.name, _eval_mask(p.expr, width)) for p in doc.preds]
    first_with_truth: dict[int, int] = {}
    notes = []
    for k, p in enumerate(preds):
        first = first_with_truth.setdefault(p.truth, k)
        if first != k:
            line, col = doc.preds[k].pos
            notes.append(f"{line}:{col}: warning: predicate {p.name!r} has the "
                         f"same truth table as {preds[first].name!r}")
    with warnings.catch_warnings():
        # reported above, with the location Vocabulary cannot know
        warnings.filterwarnings("ignore", "vocabulary contains distinct predicates")
        vocab = Vocabulary(tuple(preds))
    index = {p.name: i for i, p in enumerate(doc.preds)}

    def to_statement(names: tuple[str, ...]) -> Statement:
        return Statement.of(index[n] for n in names)

    if doc.statements:
        by_name: dict[str, Statement] = {}
        bodies: dict[tuple[int, ...], str] = {}
        listed = []
        for sd in doc.statements:
            s = to_statement(sd.members)
            bits = (1 << (1 << width)) - 1
            for i in s.members:
                bits &= preds[i].truth
            if not bits:
                raise CompileError(
                    f"statement {sd.name!r} = "
                    f"{{{', '.join(sd.members)}}} is unsatisfiable",
                    *sd.pos,
                )
            if s.members in bodies:
                raise CompileError(
                    f"statement {sd.name!r} duplicates {bodies[s.members]!r}",
                    *sd.pos,
                )
            bodies[s.members] = sd.name
            by_name[sd.name] = s
            listed.append(s)
        language = Language.explicit(space, vocab, listed)
    else:
        by_name = {}
        language = Language.derive(space, vocab, cap)

    def resolve(elem: Elem) -> Statement:
        if isinstance(elem, NameElem):
            return by_name[elem.name]
        if isinstance(elem, SetElem):
            return to_statement(elem.members)
        members = []
        for i, ch in enumerate(elem.text):
            if ch == "-":
                continue
            k = first_with_truth.get(_literal_mask(width, i, ch == "1"))
            if k is None:
                raise CompileError(
                    f"pattern {elem.text!r}: no predicate matches position {i} "
                    f"value {ch!r} (define one whose truth table is exactly that "
                    "bit literal)",
                    *elem.pos,
                )
            members.append(k)
        return Statement.of(members)

    tasks: dict[str, VTask] = {}
    for td in doc.tasks:
        situations = [resolve(e) for e in td.situations]
        decisions = [resolve(e) for e in td.decisions]
        try:
            tasks[td.name] = make_task(language, situations, decisions)
        except WeaklabError as exc:
            raise CompileError(
                f"task {td.name!r}: {exc}", *td.pos
            ) from exc
    return CompiledSpec(doc, language, tasks, tuple(notes))


def compile_text(text: str, cap: int = DEFAULT_LANGUAGE_CAP) -> CompiledSpec:
    return compile_document(parse(text), cap)
