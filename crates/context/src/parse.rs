//! A small textual surface for descriptors, mirroring the paper's
//! notation:
//!
//! ```text
//! location = Plaka and temperature in {warm, hot}
//! (location = Athens and accompanying_people = family) or (location = Ioannina)
//! *                                  -- the empty descriptor (all, …, all)
//! ```
//!
//! Grammar (keywords case-insensitive; `∧`/`∨` accepted for `and`/`or`):
//!
//! ```text
//! extended := cod ( "or" cod )*
//! cod      := "*" | [ "(" ] clause ( "and" clause )* [ ")" ]
//! clause   := param ( "=" value
//!                   | "in" "{" value ("," value)* "}"
//!                   | "in" "[" value "," value "]" )
//! ```

use crate::clause::{ClauseRef, DescriptorBuilder};
use crate::descriptor::{ContextDescriptor, ExtendedContextDescriptor};
use crate::env::{ContextEnvironment, ParamId};
use crate::error::ContextError;
use crate::state::CtxValue;

/// A token; words borrow the source text, so lexing allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Word(&'a str),
    Eq,
    Comma,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Star,
}

#[derive(Clone)]
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ContextError {
        ContextError::Parse {
            position: self.pos,
            message: message.into(),
        }
    }

    fn next_tok(&mut self) -> Result<Option<(usize, Tok<'a>)>, ContextError> {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if self.pos >= bytes.len() {
            return Ok(None);
        }
        let start = self.pos;
        let rest = &self.src[self.pos..];
        // Unicode connectives.
        for (sym, tok) in [("∧", Tok::Word("and")), ("∨", Tok::Word("or"))] {
            if let Some(r) = rest.strip_prefix(sym) {
                self.pos += rest.len() - r.len();
                return Ok(Some((start, tok)));
            }
        }
        let c = bytes[self.pos];
        let simple = match c {
            b'=' => Some(Tok::Eq),
            b',' => Some(Tok::Comma),
            b'{' => Some(Tok::LBrace),
            b'}' => Some(Tok::RBrace),
            b'[' => Some(Tok::LBracket),
            b']' => Some(Tok::RBracket),
            b'(' => Some(Tok::LParen),
            b')' => Some(Tok::RParen),
            b'*' => Some(Tok::Star),
            _ => None,
        };
        if let Some(t) = simple {
            self.pos += 1;
            return Ok(Some((start, t)));
        }
        if c == b'"' || c == b'\'' {
            let quote = c;
            let mut end = self.pos + 1;
            while end < bytes.len() && bytes[end] != quote {
                end += 1;
            }
            if end >= bytes.len() {
                return Err(self.error("unterminated quoted value"));
            }
            let word = &self.src[self.pos + 1..end];
            self.pos = end + 1;
            return Ok(Some((start, Tok::Word(word))));
        }
        // Bare word: letters, digits, and common name punctuation.
        let is_word_byte =
            |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b'/');
        if is_word_byte(c) || c >= 0x80 {
            let mut end = self.pos;
            while end < bytes.len() && (is_word_byte(bytes[end]) || bytes[end] >= 0x80) {
                // Stop before a unicode connective.
                if self.src[end..].starts_with('∧') || self.src[end..].starts_with('∨') {
                    break;
                }
                end += if bytes[end] >= 0x80 {
                    self.src[end..]
                        .chars()
                        .next()
                        .map(char::len_utf8)
                        .unwrap_or(1)
                } else {
                    1
                };
            }
            let word = &self.src[self.pos..end];
            self.pos = end;
            return Ok(Some((start, Tok::Word(word))));
        }
        Err(self.error(format!(
            "unexpected character {:?}",
            self.src[self.pos..].chars().next()
        )))
    }
}

/// A recursive-descent parser with one token of lookahead, pulled from
/// the lexer as it goes.
struct Parser<'a> {
    env: &'a ContextEnvironment,
    lex: Lexer<'a>,
    /// The next token and where it starts; `None` at the end of input.
    next: Option<(usize, Tok<'a>)>,
    len: usize,
}

impl<'a> Parser<'a> {
    fn new(env: &'a ContextEnvironment, src: &'a str) -> Result<Self, ContextError> {
        // Lex the whole input first, so a lexical error anywhere is
        // reported ahead of any grammar error.
        let mut check = Lexer::new(src);
        while check.next_tok()?.is_some() {}
        let mut lex = Lexer::new(src);
        let next = lex.next_tok()?;
        Ok(Self {
            env,
            lex,
            next,
            len: src.len(),
        })
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.next.map(|(_, t)| t)
    }

    fn pos(&self) -> usize {
        self.next.map_or(self.len, |(p, _)| p)
    }

    fn error(&self, message: impl Into<String>) -> ContextError {
        ContextError::Parse {
            position: self.pos(),
            message: message.into(),
        }
    }

    fn advance(&mut self) -> Result<(), ContextError> {
        self.next = self.lex.next_tok()?;
        Ok(())
    }

    fn expect(&mut self, tok: Tok<'_>, what: &str) -> Result<(), ContextError> {
        if self.peek() == Some(tok) {
            self.advance()
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn word(&mut self, what: &str) -> Result<&'a str, ContextError> {
        match self.peek() {
            Some(Tok::Word(w)) => {
                self.advance()?;
                Ok(w)
            }
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    fn value(&mut self, p: ParamId, param: &str) -> Result<CtxValue, ContextError> {
        let name = self.word("a value name")?;
        self.env
            .hierarchy(p)
            .lookup(name)
            .ok_or_else(|| ContextError::UnknownValue {
                param: param.to_string(),
                value: name.to_string(),
            })
    }

    /// Parse one clause into `out`.
    fn clause(&mut self, out: &mut DescriptorBuilder) -> Result<(), ContextError> {
        let param = self.word("a context parameter name")?;
        let p = self.env.require_param(param)?;
        if self.peek() == Some(Tok::Eq) {
            self.advance()?;
            out.push(p, ClauseRef::Eq(self.value(p, param)?));
            return Ok(());
        }
        if !self.is_keyword("in") {
            return Err(self.error("expected `=` or `in`"));
        }
        self.advance()?;
        match self.peek() {
            Some(Tok::LBrace) => {
                self.advance()?;
                let mut vs = vec![self.value(p, param)?];
                while self.peek() == Some(Tok::Comma) {
                    self.advance()?;
                    vs.push(self.value(p, param)?);
                }
                self.expect(Tok::RBrace, "`}`")?;
                out.push(p, ClauseRef::In(&vs));
            }
            Some(Tok::LBracket) => {
                self.advance()?;
                let from = self.value(p, param)?;
                self.expect(Tok::Comma, "`,`")?;
                let to = self.value(p, param)?;
                self.expect(Tok::RBracket, "`]`")?;
                out.push(p, ClauseRef::Range(from, to));
            }
            _ => return Err(self.error("expected `{` or `[` after `in`")),
        }
        Ok(())
    }

    /// How many clauses the conjunction at the next token holds: one
    /// more than its `and`s before `or`, `)` or the end of input. Exact
    /// unless a value is named `and` or `or`; only a capacity.
    fn clause_count(&self) -> usize {
        let mut lex = self.lex.clone();
        let mut tok = self.peek();
        let mut n = 1;
        loop {
            match tok {
                None | Some(Tok::RParen) => return n,
                Some(Tok::Word(w)) if w.eq_ignore_ascii_case("or") => return n,
                Some(Tok::Word(w)) if w.eq_ignore_ascii_case("and") => n += 1,
                _ => {}
            }
            tok = lex.next_tok().ok().flatten().map(|(_, t)| t);
        }
    }

    fn conjunction(&mut self) -> Result<ContextDescriptor, ContextError> {
        if self.peek() == Some(Tok::Star) {
            self.advance()?;
            return Ok(ContextDescriptor::empty());
        }
        let parenthesized = self.peek() == Some(Tok::LParen);
        if parenthesized {
            self.advance()?;
            // A parenthesized empty descriptor: `( * )`.
            if self.peek() == Some(Tok::Star) {
                self.advance()?;
                self.expect(Tok::RParen, "`)`")?;
                return Ok(ContextDescriptor::empty());
            }
        }
        // Sized up front, so a descriptor of `=` clauses is built in one
        // allocation.
        let mut clauses = DescriptorBuilder::with_capacity(self.clause_count());
        self.clause(&mut clauses)?;
        while self.is_keyword("and") {
            self.advance()?;
            self.clause(&mut clauses)?;
        }
        if parenthesized {
            self.expect(Tok::RParen, "`)`")?;
        }
        Ok(clauses.build())
    }

    fn extended(&mut self) -> Result<ExtendedContextDescriptor, ContextError> {
        let mut out = ExtendedContextDescriptor::new().or(self.conjunction()?);
        while self.is_keyword("or") {
            self.advance()?;
            out = out.or(self.conjunction()?);
        }
        if self.peek().is_some() {
            return Err(self.error("trailing input after descriptor"));
        }
        Ok(out)
    }
}

/// Parse a composite context descriptor (one conjunction), e.g.
/// `"location = Plaka and temperature in {warm, hot}"`. `"*"` denotes
/// the empty descriptor.
pub fn parse_descriptor(
    env: &ContextEnvironment,
    src: &str,
) -> Result<ContextDescriptor, ContextError> {
    let mut p = Parser::new(env, src)?;
    let cod = p.conjunction()?;
    if p.peek().is_some() {
        return Err(
            p.error("trailing input after descriptor (use parse_extended_descriptor for `or`)")
        );
    }
    Ok(cod)
}

/// Parse an extended context descriptor (a disjunction of
/// conjunctions, Definition 8).
pub fn parse_extended_descriptor(
    env: &ContextEnvironment,
    src: &str,
) -> Result<ExtendedContextDescriptor, ContextError> {
    Parser::new(env, src)?.extended()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::reference_env;

    #[test]
    fn parses_paper_examples() {
        let env = reference_env();
        let cod =
            parse_descriptor(&env, "location = Plaka and temperature in {warm, hot}").unwrap();
        let states = cod.states(&env).unwrap();
        let rendered: Vec<String> = states.iter().map(|s| s.display(&env).to_string()).collect();
        assert_eq!(rendered, vec!["(Plaka, warm, all)", "(Plaka, hot, all)"]);
    }

    #[test]
    fn parses_unicode_connectives_and_ranges() {
        let env = reference_env();
        let cod = parse_descriptor(&env, "location = Plaka ∧ temperature in [mild, hot]").unwrap();
        assert_eq!(cod.state_count(&env).unwrap(), 3);
    }

    #[test]
    fn parses_star_and_quotes() {
        let env = reference_env();
        let cod = parse_descriptor(&env, "*").unwrap();
        assert!(cod.is_empty());
        let cod = parse_descriptor(&env, "location = 'Plaka'").unwrap();
        assert_eq!(cod.clause_count(), 1);
    }

    #[test]
    fn parses_disjunctions() {
        let env = reference_env();
        let e = parse_extended_descriptor(
            &env,
            "(location = Athens and accompanying_people = family) or (location = Ioannina)",
        )
        .unwrap();
        assert_eq!(e.disjuncts().len(), 2);
        assert_eq!(e.states(&env).unwrap().len(), 2);
        // Without parens too.
        let e2 = parse_extended_descriptor(&env, "location = Athens ∨ temperature = good").unwrap();
        assert_eq!(e2.disjuncts().len(), 2);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let env = reference_env();
        let cod = parse_descriptor(&env, "location = Plaka AND temperature IN {warm}").unwrap();
        assert_eq!(cod.clause_count(), 2);
    }

    #[test]
    fn reports_errors_with_positions() {
        let env = reference_env();
        for (src, needle) in [
            ("location == Plaka", "expected"),
            ("location = Sparta", ""),
            ("nowhere = Plaka", ""),
            ("location in {Plaka", "expected `}`"),
            ("location in Plaka", "expected `{` or `[`"),
            ("location = Plaka extra", "trailing"),
            ("location = 'Plaka", "unterminated"),
            ("location ?", "expected"),
            ("", "expected"),
        ] {
            let err = parse_descriptor(&env, src).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "{src:?} → {msg}");
        }
    }

    #[test]
    fn or_is_rejected_by_plain_parse() {
        let env = reference_env();
        assert!(parse_descriptor(&env, "location = Plaka or location = Kifisia").is_err());
    }
}
