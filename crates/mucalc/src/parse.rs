//! A concrete syntax for equation systems, in the spirit of MUCKE input
//! files (`mu bool Reachable (Conf s) (...)`), restyled with explicit
//! keywords:
//!
//! ```text
//! type Conf = struct { pc: PC, b: bool };
//! type PC   = range 17;
//!
//! input ProgramInt(s: Conf, t: Conf);
//!
//! mu Reach(s: Conf) :=
//!     Init(s)
//!   | (exists t: Conf. Reach(t) & ProgramInt(t, s));
//!
//! query hit := exists s: Conf. Reach(s) & s.pc = 3;
//! ```
//!
//! Operator precedence (loosest to tightest): `<->`, `->`, `|`, `&`, `!`.
//! A quantifier body extends as far right as possible (to the closing
//! parenthesis or the end of the statement). Comments are `//` to end of
//! line or `/* ... */`.
//!
//! Nesting — parentheses, negations, quantifier bodies, the right operand
//! of `->` and struct field types — is bounded at [`MAX_NESTING`] levels.

use crate::ast::{CmpOp, Formula, Term};
use crate::system::{System, SystemBuilder, SystemError};
use crate::types::Type;
use std::fmt;

/// Parse error with 1-based line/column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
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

impl From<SystemError> for ParseError {
    fn from(e: SystemError) -> Self {
        ParseError { message: e.to_string(), line: 0, col: 0 }
    }
}

/// Parses the textual form of an equation system.
///
/// # Errors
///
/// Returns a [`ParseError`] on syntax errors and on the semantic errors
/// detected by [`SystemBuilder::build`] (unknown relations, arity and type
/// mismatches).
pub fn parse_system(src: &str) -> Result<System, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let mut builder = System::builder();
    while !p.at_end() {
        p.parse_item(&mut builder)?;
    }
    builder.build().map_err(ParseError::from)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(u64),
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Semi,
    Dot,
    Define, // :=
    Eq,
    Ne,
    Lt,
    Le,
    And,
    Or,
    Not,
    Arrow,  // ->
    DArrow, // <->
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Define => write!(f, "`:=`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Ne => write!(f, "`!=`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::And => write!(f, "`&`"),
            Tok::Or => write!(f, "`|`"),
            Tok::Not => write!(f, "`!`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::DArrow => write!(f, "`<->`"),
        }
    }
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    let n = bytes.len();
    macro_rules! push {
        ($tok:expr, $len:expr) => {{
            out.push(Spanned { tok: $tok, line, col });
            i += $len;
            col += $len;
        }};
    }
    while i < n {
        let c = bytes[i];
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
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
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
                    if bytes[i] == '*' && bytes[i + 1] == '/' {
                        i += 2;
                        col += 2;
                        break;
                    }
                    if bytes[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
            '(' => push!(Tok::LParen, 1),
            ')' => push!(Tok::RParen, 1),
            '{' => push!(Tok::LBrace, 1),
            '}' => push!(Tok::RBrace, 1),
            ',' => push!(Tok::Comma, 1),
            ';' => push!(Tok::Semi, 1),
            '.' => push!(Tok::Dot, 1),
            '&' => push!(Tok::And, 1),
            '|' => push!(Tok::Or, 1),
            '=' => push!(Tok::Eq, 1),
            ':' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    push!(Tok::Define, 2)
                } else {
                    push!(Tok::Colon, 1)
                }
            }
            '!' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    push!(Tok::Ne, 2)
                } else {
                    push!(Tok::Not, 1)
                }
            }
            '<' => {
                if i + 2 < n && bytes[i + 1] == '-' && bytes[i + 2] == '>' {
                    push!(Tok::DArrow, 3)
                } else if i + 1 < n && bytes[i + 1] == '=' {
                    push!(Tok::Le, 2)
                } else {
                    push!(Tok::Lt, 1)
                }
            }
            '-' => {
                if i + 1 < n && bytes[i + 1] == '>' {
                    push!(Tok::Arrow, 2)
                } else {
                    return Err(ParseError { message: "stray `-`".into(), line, col });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let value: u64 = text.parse().map_err(|_| ParseError {
                    message: format!("integer literal `{text}` out of range"),
                    line,
                    col,
                })?;
                out.push(Spanned { tok: Tok::Int(value), line, col });
                col += i - start;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < n
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_' || bytes[i] == '\'')
                {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                out.push(Spanned { tok: Tok::Ident(text), line, col });
                col += i - start;
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character `{other}`"),
                    line,
                    col,
                })
            }
        }
    }
    Ok(out)
}

/// Deepest nesting the parser accepts, the bound the `.bp` parser uses.
/// Recursive descent turns input nesting into call-stack depth, so an
/// unbounded parser overflows the stack on hostile input instead of
/// returning an error. `emit-mu` output nests far less deep.
const MAX_NESTING: usize = 100;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Current nesting depth; see [`Parser::nested`].
    depth: usize,
}

impl Parser {
    /// Runs `parse` one nesting level deeper, rejecting input nested past
    /// [`MAX_NESTING`] levels.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
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

    fn here(&self) -> (usize, usize) {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|s| (s.line, s.col))
            .unwrap_or((0, 0))
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError { message: message.into(), line, col }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == tok => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.err(format!("expected {tok}, found {t}"))),
            None => Err(self.err(format!("expected {tok}, found end of input"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            Some(t) => Err(self.err(format!("expected an identifier, found {t}"))),
            None => Err(self.err("expected an identifier, found end of input")),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_item(&mut self, builder: &mut SystemBuilder) -> Result<(), ParseError> {
        if self.eat_keyword("type") {
            let name = self.expect_ident()?;
            self.expect(&Tok::Eq)?;
            let ty = self.parse_type()?;
            self.expect(&Tok::Semi)?;
            builder.declare_type(name, ty)?;
            Ok(())
        } else if self.eat_keyword("input") {
            let name = self.expect_ident()?;
            self.expect(&Tok::LParen)?;
            let params = self.parse_params()?;
            self.expect(&Tok::RParen)?;
            self.expect(&Tok::Semi)?;
            builder.input(name, params);
            Ok(())
        } else if self.eat_keyword("mu") {
            let name = self.expect_ident()?;
            self.expect(&Tok::LParen)?;
            let params = self.parse_params()?;
            self.expect(&Tok::RParen)?;
            self.expect(&Tok::Define)?;
            let body = self.parse_formula()?;
            self.expect(&Tok::Semi)?;
            builder.define(name, params, body);
            Ok(())
        } else if self.eat_keyword("query") {
            let name = self.expect_ident()?;
            self.expect(&Tok::Define)?;
            let body = self.parse_formula()?;
            self.expect(&Tok::Semi)?;
            builder.query(name, body);
            Ok(())
        } else {
            Err(self.err("expected `type`, `input`, `mu` or `query`"))
        }
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        if self.eat_keyword("bool") {
            Ok(Type::Bool)
        } else if self.eat_keyword("range") {
            match self.bump() {
                Some(Tok::Int(n)) => Ok(Type::Range(n)),
                _ => Err(self.err("expected an integer after `range`")),
            }
        } else if self.eat_keyword("bits") {
            match self.bump() {
                Some(Tok::Int(n)) if n <= u32::MAX as u64 => Ok(Type::Bits(n as u32)),
                _ => Err(self.err("expected an integer after `bits`")),
            }
        } else if self.eat_keyword("struct") {
            self.expect(&Tok::LBrace)?;
            let mut fields = Vec::new();
            loop {
                let fname = self.expect_ident()?;
                self.expect(&Tok::Colon)?;
                let fty = self.nested(Self::parse_type)?;
                fields.push((fname, fty));
                if matches!(self.peek(), Some(Tok::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.expect(&Tok::RBrace)?;
            Ok(Type::Struct(fields))
        } else {
            let name = self.expect_ident()?;
            Ok(Type::Named(name))
        }
    }

    fn parse_params(&mut self) -> Result<Vec<(String, Type)>, ParseError> {
        let mut params = Vec::new();
        if matches!(self.peek(), Some(Tok::RParen)) {
            return Ok(params);
        }
        loop {
            let name = self.expect_ident()?;
            self.expect(&Tok::Colon)?;
            let ty = self.parse_type()?;
            params.push((name, ty));
            if matches!(self.peek(), Some(Tok::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(params)
    }

    fn parse_formula(&mut self) -> Result<Formula, ParseError> {
        self.nested(Self::parse_iff)
    }

    fn parse_iff(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.parse_implies()?;
        while matches!(self.peek(), Some(Tok::DArrow)) {
            self.pos += 1;
            let rhs = self.parse_implies()?;
            lhs = Formula::Iff(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_implies(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.parse_or()?;
        if matches!(self.peek(), Some(Tok::Arrow)) {
            self.pos += 1;
            // Right-associative.
            let rhs = self.nested(Self::parse_implies)?;
            Ok(Formula::Implies(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.parse_and()?];
        while matches!(self.peek(), Some(Tok::Or)) {
            self.pos += 1;
            parts.push(self.parse_and()?);
        }
        Ok(if parts.len() == 1 { parts.pop().expect("one") } else { Formula::Or(parts) })
    }

    fn parse_and(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.parse_unary()?];
        while matches!(self.peek(), Some(Tok::And)) {
            self.pos += 1;
            parts.push(self.parse_unary()?);
        }
        Ok(if parts.len() == 1 { parts.pop().expect("one") } else { Formula::And(parts) })
    }

    fn parse_unary(&mut self) -> Result<Formula, ParseError> {
        if matches!(self.peek(), Some(Tok::Not)) {
            self.pos += 1;
            let f = self.nested(Self::parse_unary)?;
            return Ok(Formula::Not(Box::new(f)));
        }
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == "exists" || s == "forall") {
            let is_exists = matches!(self.peek(), Some(Tok::Ident(s)) if s == "exists");
            self.pos += 1;
            let binders = self.parse_binders()?;
            self.expect(&Tok::Dot)?;
            let body = self.parse_formula()?;
            return Ok(if is_exists {
                Formula::Exists(binders, Box::new(body))
            } else {
                Formula::Forall(binders, Box::new(body))
            });
        }
        self.parse_atom()
    }

    fn parse_binders(&mut self) -> Result<Vec<(String, Type)>, ParseError> {
        let mut binders = Vec::new();
        loop {
            let name = self.expect_ident()?;
            self.expect(&Tok::Colon)?;
            let ty = self.parse_type()?;
            binders.push((name, ty));
            if matches!(self.peek(), Some(Tok::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(binders)
    }

    fn parse_atom(&mut self) -> Result<Formula, ParseError> {
        match self.peek() {
            Some(Tok::LParen) => {
                self.pos += 1;
                let f = self.parse_formula()?;
                self.expect(&Tok::RParen)?;
                Ok(f)
            }
            Some(Tok::Ident(s)) if s == "true" => {
                self.pos += 1;
                Ok(Formula::tt())
            }
            Some(Tok::Ident(s)) if s == "false" => {
                self.pos += 1;
                Ok(Formula::ff())
            }
            Some(Tok::Ident(_)) if matches!(self.peek2(), Some(Tok::LParen)) => {
                // Relation application.
                let name = self.expect_ident()?;
                self.expect(&Tok::LParen)?;
                let mut args = Vec::new();
                if !matches!(self.peek(), Some(Tok::RParen)) {
                    loop {
                        args.push(self.parse_term()?);
                        if matches!(self.peek(), Some(Tok::Comma)) {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen)?;
                Ok(Formula::App(name, args))
            }
            Some(Tok::Ident(_)) | Some(Tok::Int(_)) => {
                let lhs = self.parse_term()?;
                let op = match self.peek() {
                    Some(Tok::Eq) => Some(CmpOp::Eq),
                    Some(Tok::Ne) => Some(CmpOp::Ne),
                    Some(Tok::Lt) => Some(CmpOp::Lt),
                    Some(Tok::Le) => Some(CmpOp::Le),
                    _ => None,
                };
                match op {
                    Some(op) => {
                        self.pos += 1;
                        let rhs = self.parse_term()?;
                        Ok(Formula::Cmp(lhs, op, rhs))
                    }
                    None => match lhs {
                        Term::Int(_) => Err(self.err("integer literal is not a formula")),
                        t => Ok(Formula::Atom(t)),
                    },
                }
            }
            Some(t) => {
                let t = t.clone();
                Err(self.err(format!("expected a formula, found {t}")))
            }
            None => Err(self.err("expected a formula, found end of input")),
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Term::Int(v)),
            Some(Tok::Ident(name)) => {
                let mut path = Vec::new();
                while matches!(self.peek(), Some(Tok::Dot)) {
                    self.pos += 1;
                    path.push(self.expect_ident()?);
                }
                Ok(Term::Var { name, path })
            }
            Some(t) => Err(self.err(format!("expected a term, found {t}"))),
            None => Err(self.err("expected a term, found end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::RelationKind;

    #[test]
    fn parse_reach_example() {
        let sys = parse_system(
            r#"
            // The §3 example.
            type State = bits 3;
            input Init(s: State);
            input Trans(s: State, t: State);
            mu Reach(u: State) :=
                Init(u) | (exists x: State. Reach(x) & Trans(x, u));
            query hit := exists u: State. Reach(u) & u = 5;
            "#,
        )
        .unwrap();
        assert_eq!(sys.relations().len(), 3);
        assert_eq!(sys.queries().len(), 1);
        assert_eq!(sys.relation("Reach").unwrap().kind, RelationKind::Fixpoint);
        assert!(sys.is_positive("Reach"));
    }

    #[test]
    fn parse_struct_types_and_paths() {
        let sys = parse_system(
            r#"
            type PC = range 9;
            type Conf = struct { pc: PC, halt: bool };
            input At(p: PC);
            mu R(s: Conf) := At(s.pc) & !s.halt;
            "#,
        )
        .unwrap();
        let rel = sys.relation("R").unwrap();
        assert_eq!(rel.params.len(), 1);
    }

    #[test]
    fn parse_comparisons() {
        let sys = parse_system(
            r#"
            type K = range 7;
            input I(a: K, b: K);
            mu R(a: K, b: K) := I(a, b) & a <= b & a != 3 & !(b < a);
            "#,
        )
        .unwrap();
        assert!(sys.relation("R").is_some());
    }

    #[test]
    fn parse_implication_and_iff() {
        let sys = parse_system(
            r#"
            type B = bool;
            input P(x: B);
            input Q(x: B);
            mu R(x: B) := (P(x) -> Q(x)) <-> (!P(x) | Q(x));
            "#,
        )
        .unwrap();
        let body = sys.relation("R").unwrap().body.as_ref().unwrap();
        assert!(matches!(body, Formula::Iff(..)));
    }

    #[test]
    fn error_reports_position() {
        let err = parse_system("type X = ;").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.col > 1);
    }

    #[test]
    fn unterminated_comment() {
        let err = parse_system("/* nope").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn semantic_error_surfaces() {
        let err = parse_system(
            r#"
            type B = bool;
            mu R(x: B) := Missing(x);
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("Missing"));
    }

    #[test]
    fn primed_identifiers() {
        // cs' style names from the paper parse as identifiers.
        let sys = parse_system(
            r#"
            type K = range 4;
            input I(k: K);
            mu R(cs: K) := exists cs': K. I(cs') & cs' <= cs;
            "#,
        )
        .unwrap();
        assert!(sys.relation("R").is_some());
    }
}
