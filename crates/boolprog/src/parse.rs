//! Parser for the concrete syntax of Boolean programs.
//!
//! The grammar follows §2 of the paper with a concrete rendering:
//!
//! ```text
//! decl g1, g2;
//!
//! main() begin
//!   decl x;
//!   x := T;
//!   x, g1 := f(x, *);
//!   if (x & !g1) then ERR: skip; fi;
//!   while (*) do call f(T, F); od;
//! end
//!
//! f(a, b) returns 2 begin
//!   return a | b, schoose [a, b];
//! end
//! ```
//!
//! Extensions used by the benchmark suites: `assert(e)`, `assume(e)`,
//! `goto L`, labels (`L: stmt`), `dead x, y` and `schoose [pos, neg]`.
//! Concurrent programs (§5) wrap thread programs in `thread … endthread`
//! after a `shared` declaration.

use crate::ast::{ConcProgram, Expr, Proc, Program, Stmt, StmtKind};
use std::fmt;

/// Parse error with 1-based position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a sequential Boolean program.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(src)?;
    let prog = p.parse_program()?;
    if !p.at_end() {
        return Err(p.err("trailing input after program"));
    }
    Ok(prog)
}

/// Parses a concurrent Boolean program (`shared …; thread … endthread …`).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error.
pub fn parse_concurrent(src: &str) -> Result<ConcProgram, ParseError> {
    let mut p = Parser::new(src)?;
    let mut shared = Vec::new();
    if p.eat_kw("shared") {
        shared = p.parse_ident_list()?;
        p.expect_sym(";")?;
    }
    let mut threads = Vec::new();
    while p.eat_kw("thread") {
        let prog = p.parse_program_until(Some("endthread"))?;
        p.expect_kw("endthread")?;
        threads.push(prog);
    }
    if !p.at_end() {
        return Err(p.err("expected `thread` or end of input"));
    }
    if threads.is_empty() {
        return Err(p.err("a concurrent program needs at least one thread"));
    }
    Ok(ConcProgram { shared, threads })
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(u64),
    Sym(&'static str),
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

const KEYWORDS: &[&str] = &[
    "decl",
    "begin",
    "end",
    "skip",
    "call",
    "return",
    "returns",
    "if",
    "then",
    "else",
    "fi",
    "while",
    "do",
    "od",
    "assert",
    "assume",
    "goto",
    "dead",
    "schoose",
    "shared",
    "thread",
    "endthread",
];

fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let (mut i, mut line, mut col) = (0usize, 1usize, 1usize);
    let n = chars.len();
    while i < n {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                i += 2;
                col += 2;
                loop {
                    if i + 1 >= n {
                        return Err(ParseError {
                            message: "unterminated block comment".into(),
                            line,
                            col,
                        });
                    }
                    if chars[i] == '*' && chars[i + 1] == '/' {
                        i += 2;
                        col += 2;
                        break;
                    }
                    if chars[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
            _ => {
                let two: String = chars[i..n.min(i + 2)].iter().collect();
                let sym2 = [":=", "!="].iter().find(|&&s| s == two);
                if let Some(&s) = sym2 {
                    out.push(Spanned { tok: Tok::Sym(s), line, col });
                    i += 2;
                    col += 2;
                    continue;
                }
                let sym1 = ["(", ")", "[", "]", ",", ";", ":", "&", "|", "!", "=", "*"]
                    .iter()
                    .find(|&&s| s.starts_with(c));
                if let Some(&s) = sym1 {
                    out.push(Spanned { tok: Tok::Sym(s), line, col });
                    i += 1;
                    col += 1;
                    continue;
                }
                if c.is_ascii_digit() {
                    let start = i;
                    while i < n && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text: String = chars[start..i].iter().collect();
                    let v = text.parse().map_err(|_| ParseError {
                        message: format!("integer `{text}` out of range"),
                        line,
                        col,
                    })?;
                    out.push(Spanned { tok: Tok::Int(v), line, col });
                    col += i - start;
                    continue;
                }
                if c.is_ascii_alphabetic() || c == '_' {
                    let start = i;
                    while i < n
                        && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '$')
                    {
                        i += 1;
                    }
                    let text: String = chars[start..i].iter().collect();
                    out.push(Spanned { tok: Tok::Ident(text), line, col });
                    col += i - start;
                    continue;
                }
                return Err(ParseError {
                    message: format!("unexpected character `{c}`"),
                    line,
                    col,
                });
            }
        }
    }
    Ok(out)
}

/// Upper bound on a procedure's `returns N` count. Return tuples lower
/// to one CFG expression per slot, so an absurd count in a hostile file
/// would become an equally absurd allocation during lowering; anything
/// past this is a parse error instead.
const MAX_RETURNS: usize = 1024;

/// Upper bound on syntactic nesting (statement bodies and expression
/// parentheses). Recursive descent turns input nesting into call-stack
/// depth, so without a bound a file of a few hundred thousand open
/// parens crashes the process with a stack overflow — an abort, not a
/// [`ParseError`]. Real programs nest a handful of levels; the bound is
/// sized so even the fat statement-level frames of a debug build fit a
/// 2 MiB thread stack with room to spare. NB: a fully parenthesized
/// printed `&`-chain nests one level per conjunct, so this also caps
/// re-parseable chain width — keep it comfortably above workload sizes.
const MAX_NESTING: usize = 100;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Current nesting depth across both recursion cycles; see
    /// [`Parser::descend`].
    depth: usize,
    /// Procedure name → 1-based line of its first definition, within the
    /// current program unit (reset per thread in concurrent programs).
    procs_seen: std::collections::BTreeMap<String, usize>,
    /// Label → 1-based line of its first occurrence; labels share one
    /// program-wide namespace (reachability targets), so duplicates are
    /// rejected across procedures too.
    labels_seen: std::collections::BTreeMap<String, usize>,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
            depth: 0,
            procs_seen: Default::default(),
            labels_seen: Default::default(),
        })
    }

    /// Enters one nesting level, rejecting input deeper than
    /// [`MAX_NESTING`]. Callers pair this with a `self.depth -= 1` on
    /// their success path; error paths abort the whole parse, so a stale
    /// count cannot leak into later parsing.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    /// Position of the token at `idx` (1-based), for error anchoring.
    fn span_at(&self, idx: usize) -> (usize, usize) {
        self.tokens.get(idx).map(|s| (s.line, s.col)).unwrap_or((1, 1))
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|s| &s.tok)
    }

    /// An error at the current token, at the last one past the end of
    /// input, and at 1:1 in an input without tokens.
    fn err(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self
            .tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|s| (s.line, s.col))
            .unwrap_or((1, 1));
        ParseError { message: msg.into(), line, col }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        t
    }

    fn is_sym(&self, s: &str) -> bool {
        matches!(self.peek(), Some(Tok::Sym(t)) if *t == s)
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.is_sym(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(t)) if t == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) if !KEYWORDS.contains(&s.as_str()) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            Some(Tok::Ident(s)) => Err(self.err(format!("`{s}` is a keyword"))),
            _ => Err(self.err("expected an identifier")),
        }
    }

    fn parse_ident_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut out = vec![self.expect_ident()?];
        while self.eat_sym(",") {
            out.push(self.expect_ident()?);
        }
        Ok(out)
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        self.parse_program_until(None)
    }

    fn parse_program_until(&mut self, stop_kw: Option<&str>) -> Result<Program, ParseError> {
        // Each program unit (a sequential program, or one thread of a
        // concurrent one) is its own namespace for procedures and labels.
        self.procs_seen.clear();
        self.labels_seen.clear();
        let mut globals = Vec::new();
        while self.eat_kw("decl") {
            globals.extend(self.parse_ident_list()?);
            self.expect_sym(";")?;
        }
        let mut procs = Vec::new();
        loop {
            if self.at_end() {
                break;
            }
            if let Some(kw) = stop_kw {
                if self.is_kw(kw) {
                    break;
                }
            }
            procs.push(self.parse_proc()?);
        }
        if procs.is_empty() {
            return Err(self.err("a program needs at least one procedure"));
        }
        Ok(Program { globals, procs })
    }

    fn parse_proc(&mut self) -> Result<Proc, ParseError> {
        let name = self.expect_ident()?;
        let (line, col) = self.span_at(self.pos - 1);
        if let Some(&first) = self.procs_seen.get(&name) {
            return Err(ParseError {
                message: format!(
                    "procedure `{name}` defined twice (first definition at line {first})"
                ),
                line,
                col,
            });
        }
        self.procs_seen.insert(name.clone(), line);
        self.expect_sym("(")?;
        let mut params = Vec::new();
        if !self.is_sym(")") {
            params = self.parse_ident_list()?;
        }
        self.expect_sym(")")?;
        let mut returns = 0usize;
        if self.eat_kw("returns") {
            match self.bump() {
                Some(Tok::Int(v)) if v <= MAX_RETURNS as u64 => returns = v as usize,
                Some(Tok::Int(v)) => {
                    return Err(self.err(format!(
                        "`returns {v}` exceeds the supported maximum of {MAX_RETURNS} \
                         return values"
                    )))
                }
                _ => return Err(self.err("expected a count after `returns`")),
            }
        }
        self.expect_kw("begin")?;
        let mut locals = Vec::new();
        while self.eat_kw("decl") {
            locals.extend(self.parse_ident_list()?);
            self.expect_sym(";")?;
        }
        let body = self.parse_stmts(&["end"])?;
        self.expect_kw("end")?;
        Ok(Proc { name, params, returns, locals, body })
    }

    /// Parses statements until one of the given closing keywords.
    fn parse_stmts(&mut self, closers: &[&str]) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            if self.at_end() {
                return Err(self.err(format!("expected one of {closers:?}")));
            }
            if closers.iter().any(|c| self.is_kw(c)) {
                return Ok(out);
            }
            out.push(self.parse_stmt()?);
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.descend()?;
        let stmt = self.parse_stmt_at_depth();
        self.depth -= 1;
        stmt
    }

    fn parse_stmt_at_depth(&mut self) -> Result<Stmt, ParseError> {
        let line = self.tokens.get(self.pos).map(|s| s.line as u32);
        // Optional label: IDENT ':' not followed by '='.
        let label = if matches!(self.peek(), Some(Tok::Ident(s)) if !KEYWORDS.contains(&s.as_str()))
            && matches!(self.peek2(), Some(Tok::Sym(":")))
        {
            let l = self.expect_ident()?;
            let (lline, lcol) = self.span_at(self.pos - 1);
            if let Some(&first) = self.labels_seen.get(&l) {
                return Err(ParseError {
                    message: format!(
                        "label `{l}` declared twice (first declaration at line {first})"
                    ),
                    line: lline,
                    col: lcol,
                });
            }
            self.labels_seen.insert(l.clone(), lline);
            self.expect_sym(":")?;
            Some(l)
        } else {
            None
        };
        let kind = self.parse_stmt_kind()?;
        Ok(Stmt { label, kind, line })
    }

    fn parse_stmt_kind(&mut self) -> Result<StmtKind, ParseError> {
        if self.eat_kw("skip") {
            self.expect_sym(";")?;
            return Ok(StmtKind::Skip);
        }
        if self.eat_kw("call") {
            let callee = self.expect_ident()?;
            self.expect_sym("(")?;
            let args = self.parse_expr_list_until(")")?;
            self.expect_sym(")")?;
            self.expect_sym(";")?;
            return Ok(StmtKind::Call { callee, args });
        }
        if self.eat_kw("return") {
            let exprs =
                if self.is_sym(";") { Vec::new() } else { self.parse_expr_list_until(";")? };
            self.expect_sym(";")?;
            return Ok(StmtKind::Return(exprs));
        }
        if self.eat_kw("if") {
            self.expect_sym("(")?;
            let cond = self.parse_expr()?;
            self.expect_sym(")")?;
            self.expect_kw("then")?;
            let then_branch = self.parse_stmts(&["else", "fi"])?;
            let else_branch =
                if self.eat_kw("else") { self.parse_stmts(&["fi"])? } else { Vec::new() };
            self.expect_kw("fi")?;
            self.eat_sym(";");
            return Ok(StmtKind::If { cond, then_branch, else_branch });
        }
        if self.eat_kw("while") {
            self.expect_sym("(")?;
            let cond = self.parse_expr()?;
            self.expect_sym(")")?;
            self.expect_kw("do")?;
            let body = self.parse_stmts(&["od"])?;
            self.expect_kw("od")?;
            self.eat_sym(";");
            return Ok(StmtKind::While { cond, body });
        }
        if self.eat_kw("assert") {
            self.expect_sym("(")?;
            let e = self.parse_expr()?;
            self.expect_sym(")")?;
            self.expect_sym(";")?;
            return Ok(StmtKind::Assert(e));
        }
        if self.eat_kw("assume") {
            self.expect_sym("(")?;
            let e = self.parse_expr()?;
            self.expect_sym(")")?;
            self.expect_sym(";")?;
            return Ok(StmtKind::Assume(e));
        }
        if self.eat_kw("goto") {
            let l = self.expect_ident()?;
            self.expect_sym(";")?;
            return Ok(StmtKind::Goto(l));
        }
        if self.eat_kw("dead") {
            let vars = self.parse_ident_list()?;
            self.expect_sym(";")?;
            return Ok(StmtKind::Dead(vars));
        }
        // Assignment: idents := exprs | idents := callee(args)
        let targets = self.parse_ident_list()?;
        self.expect_sym(":=")?;
        // Call if single ident followed by '(' — distinguished from an
        // expression list starting with a variable.
        if matches!(self.peek(), Some(Tok::Ident(s)) if !KEYWORDS.contains(&s.as_str()))
            && matches!(self.peek2(), Some(Tok::Sym("(")))
        {
            let callee = self.expect_ident()?;
            self.expect_sym("(")?;
            let args = self.parse_expr_list_until(")")?;
            self.expect_sym(")")?;
            self.expect_sym(";")?;
            return Ok(StmtKind::CallAssign { targets, callee, args });
        }
        let mut exprs = vec![self.parse_expr()?];
        while self.eat_sym(",") {
            exprs.push(self.parse_expr()?);
        }
        self.expect_sym(";")?;
        Ok(StmtKind::Assign { targets, exprs })
    }

    fn parse_expr_list_until(&mut self, closer: &str) -> Result<Vec<Expr>, ParseError> {
        let mut out = Vec::new();
        if self.is_sym(closer) {
            return Ok(out);
        }
        out.push(self.parse_expr()?);
        while self.eat_sym(",") {
            out.push(self.parse_expr()?);
        }
        Ok(out)
    }

    /// Precedence (loose → tight): `|`, `&`, `=`/`!=`, `!`.
    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.eat_sym("|") {
            let rhs = self.parse_and()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_cmp()?;
        while self.eat_sym("&") {
            let rhs = self.parse_cmp()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_unary()?;
        if self.eat_sym("=") {
            let rhs = self.parse_unary()?;
            return Ok(Expr::Eq(Box::new(lhs), Box::new(rhs)));
        }
        if self.eat_sym("!=") {
            let rhs = self.parse_unary()?;
            return Ok(Expr::Ne(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        self.descend()?;
        let expr = self.parse_unary_at_depth();
        self.depth -= 1;
        expr
    }

    fn parse_unary_at_depth(&mut self) -> Result<Expr, ParseError> {
        if self.eat_sym("!") {
            let e = self.parse_unary()?;
            return Ok(Expr::Not(Box::new(e)));
        }
        if self.eat_sym("(") {
            let e = self.parse_expr()?;
            self.expect_sym(")")?;
            return Ok(e);
        }
        if self.eat_sym("*") {
            return Ok(Expr::Nondet);
        }
        if self.eat_kw("schoose") {
            self.expect_sym("[")?;
            let pos = self.parse_expr()?;
            self.expect_sym(",")?;
            let neg = self.parse_expr()?;
            self.expect_sym("]")?;
            return Ok(Expr::Schoose(Box::new(pos), Box::new(neg)));
        }
        match self.peek() {
            Some(Tok::Ident(s)) if s == "T" => {
                self.pos += 1;
                Ok(Expr::Const(true))
            }
            Some(Tok::Ident(s)) if s == "F" => {
                self.pos += 1;
                Ok(Expr::Const(false))
            }
            Some(Tok::Ident(s)) if !KEYWORDS.contains(&s.as_str()) => {
                let v = s.clone();
                self.pos += 1;
                Ok(Expr::Var(v))
            }
            _ => Err(self.err("expected an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
        decl g, h;

        main() begin
          decl x, y;
          x := T;
          x, y := f(x, *);
          if (x & !g) then
            ERR: skip;
          else
            y := schoose [x, g];
          fi;
          while (*) do
            call f(T, F);
          od;
          assert (g | !h);
          assume (x);
          dead x, y;
          goto ERR;
        end

        f(a, b) returns 2 begin
          decl c;
          c := a != b;
          return a | b, c = a;
        end
    "#;

    #[test]
    fn parse_full_example() {
        let p = parse_program(EXAMPLE).unwrap();
        assert_eq!(p.globals, vec!["g", "h"]);
        assert_eq!(p.procs.len(), 2);
        let f = p.proc("f").unwrap();
        assert_eq!(f.params, vec!["a", "b"]);
        assert_eq!(f.returns, 2);
        assert_eq!(f.locals, vec!["c"]);
        let main = p.proc("main").unwrap();
        // labeled statement inside if
        let StmtKind::If { then_branch, .. } = &main.body[2].kind else {
            panic!("expected if");
        };
        assert_eq!(then_branch[0].label.as_deref(), Some("ERR"));
    }

    #[test]
    fn round_trip() {
        let p1 = parse_program(EXAMPLE).unwrap();
        let printed = p1.to_string();
        let p2 = parse_program(&printed).expect("pretty output must re-parse");
        assert_eq!(
            p1.without_lines(),
            p2.without_lines(),
            "parse ∘ print is the identity on the AST (modulo line metadata)"
        );
    }

    #[test]
    fn statements_carry_source_lines() {
        let p = parse_program(EXAMPLE).unwrap();
        let main = p.proc("main").unwrap();
        // EXAMPLE is a raw string: line 1 is the empty line after r#".
        let lines: Vec<Option<u32>> = main.body.iter().map(|s| s.line).collect();
        assert!(lines.iter().all(Option::is_some), "every parsed stmt has a line");
        assert!(lines.windows(2).all(|w| w[0] < w[1]), "lines ascend: {lines:?}");
    }

    #[test]
    fn parse_concurrent_program() {
        let src = r#"
            shared s1, s2;
            thread
              main() begin
                s1 := T;
              end
            endthread
            thread
              decl l;
              main() begin
                l := s1;
              end
            endthread
        "#;
        let c = parse_concurrent(src).unwrap();
        assert_eq!(c.shared, vec!["s1", "s2"]);
        assert_eq!(c.threads.len(), 2);
        assert_eq!(c.threads[1].globals, vec!["l"]);
    }

    #[test]
    fn a_program_without_procedures_or_threads_is_rejected_at_a_position() {
        let at = |r: Result<(), ParseError>| r.map_err(|e| (e.line, e.col));
        assert_eq!(at(parse_program("").map(drop)), Err((1, 1)));
        assert_eq!(at(parse_concurrent("").map(drop)), Err((1, 1)));
        assert_eq!(at(parse_concurrent("  shared s;").map(drop)), Err((1, 11)));
        let e = parse_concurrent("shared s;").expect_err("no thread");
        assert_eq!(e.message, "a concurrent program needs at least one thread");
    }

    #[test]
    fn concurrent_round_trip() {
        let src = r#"
            shared s;
            thread
              main() begin
                s := !s;
              end
            endthread
        "#;
        let c1 = parse_concurrent(src).unwrap();
        let c2 = parse_concurrent(&c1.to_string()).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn error_position() {
        let err = parse_program("main() begin x := ; end").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("expression"));
    }

    #[test]
    fn empty_return_and_args() {
        let p = parse_program(
            r#"
            main() begin
              call f();
              return;
            end
            f() begin
              skip;
            end
            "#,
        )
        .unwrap();
        assert_eq!(p.procs.len(), 2);
    }

    #[test]
    fn keyword_cannot_be_variable() {
        assert!(parse_program("main() begin decl while; end").is_err());
    }

    #[test]
    fn label_vs_assign_disambiguation() {
        let p = parse_program(
            r#"
            main() begin
              decl x;
              L1: x := T;
              x := F;
            end
            "#,
        )
        .unwrap();
        assert_eq!(p.procs[0].body[0].label.as_deref(), Some("L1"));
        assert_eq!(p.procs[0].body[1].label, None);
    }

    #[test]
    fn duplicate_procedure_is_a_parse_error_with_position() {
        let err = parse_program("main() begin skip; end\nf() begin skip; end\nf() begin skip; end")
            .unwrap_err();
        assert!(err.message.contains("procedure `f` defined twice"), "{err}");
        assert!(err.message.contains("line 2"), "{err}");
        assert_eq!(err.line, 3);
        assert_eq!(err.col, 1);
    }

    #[test]
    fn duplicate_label_is_a_parse_error_with_position() {
        let err = parse_program("main() begin\nL: skip;\nL: skip;\nend").unwrap_err();
        assert!(err.message.contains("label `L` declared twice"), "{err}");
        assert!(err.message.contains("line 2"), "{err}");
        assert_eq!(err.line, 3);
        assert_eq!(err.col, 1);
    }

    #[test]
    fn duplicate_label_across_procedures_is_rejected() {
        // Labels are one program-wide namespace (reachability targets).
        let err = parse_program("main() begin L: skip; end\nf() begin L: skip; end").unwrap_err();
        assert!(err.message.contains("label `L` declared twice"), "{err}");
    }

    #[test]
    fn duplicates_across_threads_are_fine() {
        // Each thread is its own namespace; merging prefixes names.
        let c = parse_concurrent(
            r#"
            shared g;
            thread
              main() begin HIT: skip; end
              f() begin skip; end
            endthread
            thread
              main() begin HIT: skip; end
              f() begin skip; end
            endthread
            "#,
        )
        .unwrap();
        assert_eq!(c.threads.len(), 2);
    }
}
