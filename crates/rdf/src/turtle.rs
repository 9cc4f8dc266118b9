//! A Turtle parser covering the subset the recommender infrastructure emits:
//! `@prefix` / `@base` directives, prefixed names, IRI references with
//! `\u`/`\U` escapes, blank node labels and anonymous property lists,
//! string / numeric / boolean literals, language tags, datatypes, the `a`
//! keyword, and `;` / `,` object lists.
//!
//! N-Triples documents are a syntactic subset of Turtle, so
//! [`crate::ntriples`] reuses this parser.

use std::collections::HashMap;

use crate::error::{RdfError, Result};
use crate::graph::Graph;
use crate::model::{BlankNode, Iri, Literal, Subject, Term, Triple};
use crate::vocab;

/// Parses a Turtle document into a [`Graph`].
pub fn parse(input: &str) -> Result<Graph> {
    let mut parser = Parser::new(input);
    parser.run()?;
    Ok(parser.graph)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    line: usize,
    line_start: usize,
    prefixes: HashMap<String, String>,
    base: Option<String>,
    graph: Graph,
    anon_counter: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
            prefixes: HashMap::new(),
            base: None,
            graph: Graph::new(),
            anon_counter: 0,
        }
    }

    fn run(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.at_end() {
                return Ok(());
            }
            if self.peek() == b'@' {
                self.directive()?;
            } else if self.peek_keyword("PREFIX") {
                self.pos += 6;
                self.sparql_prefix()?;
            } else if self.peek_keyword("BASE") {
                self.pos += 4;
                self.sparql_base()?;
            } else {
                self.statement()?;
            }
        }
    }

    // --- character machinery -------------------------------------------------

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> u8 {
        self.input[self.pos]
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.input.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> u8 {
        let c = self.input[self.pos];
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        c
    }

    fn column(&self) -> usize {
        self.pos - self.line_start + 1
    }

    fn err(&self, message: impl Into<String>) -> RdfError {
        RdfError::syntax(self.line, self.column(), message)
    }

    fn skip_ws(&mut self) {
        while !self.at_end() {
            let c = self.peek();
            if c == b'#' {
                while !self.at_end() && self.peek() != b'\n' {
                    self.bump();
                }
            } else if c.is_ascii_whitespace() {
                self.bump();
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        self.skip_ws();
        if self.at_end() || self.peek() != c {
            return Err(self.err(format!("expected `{}`", c as char)));
        }
        self.bump();
        Ok(())
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        let bytes = kw.as_bytes();
        if self.pos + bytes.len() > self.input.len() {
            return false;
        }
        self.input[self.pos..self.pos + bytes.len()].eq_ignore_ascii_case(bytes)
            && self
                .input
                .get(self.pos + bytes.len())
                .is_none_or(|c| c.is_ascii_whitespace() || *c == b'<')
    }

    // --- directives ----------------------------------------------------------

    fn directive(&mut self) -> Result<()> {
        // self.peek() == b'@'
        self.bump();
        let word = self.bare_word();
        match word.as_str() {
            "prefix" => {
                self.sparql_prefix()?;
                self.expect(b'.')
            }
            "base" => {
                self.sparql_base()?;
                self.expect(b'.')
            }
            other => Err(self.err(format!("unknown directive `@{other}`"))),
        }
    }

    fn bare_word(&mut self) -> String {
        let start = self.pos;
        while !self.at_end() && self.peek().is_ascii_alphabetic() {
            self.bump();
        }
        String::from_utf8_lossy(&self.input[start..self.pos]).into_owned()
    }

    fn sparql_prefix(&mut self) -> Result<()> {
        self.skip_ws();
        let prefix = self.pname_prefix()?;
        self.expect(b':')?;
        self.skip_ws();
        let iri = self.iriref()?;
        self.prefixes.insert(prefix, iri);
        Ok(())
    }

    fn sparql_base(&mut self) -> Result<()> {
        self.skip_ws();
        let iri = self.iriref()?;
        self.base = Some(iri);
        Ok(())
    }

    fn pname_prefix(&mut self) -> Result<String> {
        let start = self.pos;
        while !self.at_end() {
            let c = self.peek();
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' {
                self.bump();
            } else {
                break;
            }
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    // --- statements ----------------------------------------------------------

    fn statement(&mut self) -> Result<()> {
        let subject = self.subject()?;
        self.predicate_object_list(&subject)?;
        self.expect(b'.')
    }

    fn subject(&mut self) -> Result<Subject> {
        self.skip_ws();
        if self.at_end() {
            return Err(self.err("expected subject"));
        }
        match self.peek() {
            b'<' => {
                let iri = self.iriref()?;
                Ok(Subject::Iri(self.make_iri(iri)?))
            }
            b'_' => Ok(Subject::Blank(self.blank_node_label()?)),
            b'[' => {
                let node = self.blank_node_property_list()?;
                Ok(Subject::Blank(node))
            }
            _ => {
                let iri = self.prefixed_name()?;
                Ok(Subject::Iri(iri))
            }
        }
    }

    fn predicate_object_list(&mut self, subject: &Subject) -> Result<()> {
        loop {
            let predicate = self.predicate()?;
            loop {
                let object = self.object()?;
                self.graph.insert(Triple {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                self.skip_ws();
                if !self.at_end() && self.peek() == b',' {
                    self.bump();
                } else {
                    break;
                }
            }
            self.skip_ws();
            if !self.at_end() && self.peek() == b';' {
                self.bump();
                self.skip_ws();
                // Trailing `;` before `.` or `]` is legal Turtle.
                if self.at_end() || self.peek() == b'.' || self.peek() == b']' {
                    return Ok(());
                }
            } else {
                return Ok(());
            }
        }
    }

    fn predicate(&mut self) -> Result<Iri> {
        self.skip_ws();
        if self.at_end() {
            return Err(self.err("expected predicate"));
        }
        match self.peek() {
            b'<' => {
                let iri = self.iriref()?;
                self.make_iri(iri)
            }
            b'a' if self
                .peek_at(1)
                .is_none_or(|c| c.is_ascii_whitespace() || c == b'<' || c == b'[' || c == b'_') =>
            {
                self.bump();
                Ok(vocab::rdf::type_())
            }
            _ => self.prefixed_name(),
        }
    }

    fn object(&mut self) -> Result<Term> {
        self.skip_ws();
        if self.at_end() {
            return Err(self.err("expected object"));
        }
        match self.peek() {
            b'<' => {
                let iri = self.iriref()?;
                Ok(Term::Iri(self.make_iri(iri)?))
            }
            b'_' => Ok(Term::Blank(self.blank_node_label()?)),
            b'[' => Ok(Term::Blank(self.blank_node_property_list()?)),
            b'"' | b'\'' => Ok(Term::Literal(self.literal()?)),
            c if c == b'+' || c == b'-' || c.is_ascii_digit() => {
                Ok(Term::Literal(self.numeric_literal()?))
            }
            _ => {
                // `true` / `false` keywords, otherwise a prefixed name.
                if self.peek_keyword_strict("true") {
                    self.pos += 4;
                    Ok(Term::Literal(Literal::boolean(true)))
                } else if self.peek_keyword_strict("false") {
                    self.pos += 5;
                    Ok(Term::Literal(Literal::boolean(false)))
                } else {
                    Ok(Term::Iri(self.prefixed_name()?))
                }
            }
        }
    }

    fn peek_keyword_strict(&self, kw: &str) -> bool {
        let bytes = kw.as_bytes();
        if self.pos + bytes.len() > self.input.len() {
            return false;
        }
        &self.input[self.pos..self.pos + bytes.len()] == bytes
            && self.input.get(self.pos + bytes.len()).is_none_or(|c| {
                c.is_ascii_whitespace() || matches!(c, b'.' | b';' | b',' | b']' | b')' | b'#')
            })
    }

    // --- terminals -----------------------------------------------------------

    fn iriref(&mut self) -> Result<String> {
        if self.at_end() || self.peek() != b'<' {
            return Err(self.err("expected `<`"));
        }
        self.bump();
        let mut out = String::new();
        loop {
            if self.at_end() {
                return Err(self.err("unterminated IRI"));
            }
            match self.bump() {
                b'>' => break,
                b'\\' => {
                    let esc = if self.at_end() { 0 } else { self.bump() };
                    match esc {
                        b'u' => out.push(self.unicode_escape(4)?),
                        b'U' => out.push(self.unicode_escape(8)?),
                        _ => return Err(self.err("invalid IRI escape")),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                c => {
                    // Re-assemble a multi-byte UTF-8 sequence.
                    let mut buf = vec![c];
                    while !self.at_end() && self.peek() & 0xC0 == 0x80 {
                        buf.push(self.bump());
                    }
                    out.push_str(
                        std::str::from_utf8(&buf).map_err(|_| self.err("invalid UTF-8 in IRI"))?,
                    );
                }
            }
        }
        Ok(out)
    }

    fn make_iri(&self, raw: String) -> Result<Iri> {
        // Resolve against @base when the reference is relative.
        if !raw.contains(':') {
            if let Some(base) = &self.base {
                return Iri::new(format!("{base}{raw}"));
            }
        }
        Iri::new(raw)
    }

    fn unicode_escape(&mut self, digits: usize) -> Result<char> {
        let mut value: u32 = 0;
        for _ in 0..digits {
            if self.at_end() {
                return Err(self.err("truncated unicode escape"));
            }
            let c = self.bump() as char;
            let d = c.to_digit(16).ok_or_else(|| self.err("invalid unicode escape"))?;
            value = value * 16 + d;
        }
        char::from_u32(value).ok_or_else(|| self.err("escape is not a valid code point"))
    }

    fn blank_node_label(&mut self) -> Result<BlankNode> {
        // self.peek() == b'_'
        self.bump();
        if self.at_end() || self.peek() != b':' {
            return Err(self.err("expected `:` after `_` in blank node"));
        }
        self.bump();
        let start = self.pos;
        while !self.at_end() {
            let c = self.peek();
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' {
                // A trailing dot terminates the statement rather than the label.
                if c == b'.'
                    && self
                        .peek_at(1)
                        .is_none_or(|n| !(n.is_ascii_alphanumeric() || n == b'_' || n == b'-'))
                {
                    break;
                }
                self.bump();
            } else {
                break;
            }
        }
        let label = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
        BlankNode::new(label).map_err(|e| self.err(e.to_string()))
    }

    fn blank_node_property_list(&mut self) -> Result<BlankNode> {
        // self.peek() == b'['
        self.bump();
        self.anon_counter += 1;
        let node = BlankNode::new(format!("anon{}", self.anon_counter))
            .expect("generated labels are valid");
        self.skip_ws();
        if !self.at_end() && self.peek() == b']' {
            self.bump();
            return Ok(node);
        }
        let subject = Subject::Blank(node.clone());
        self.predicate_object_list(&subject)?;
        self.expect(b']')?;
        Ok(node)
    }

    fn prefixed_name(&mut self) -> Result<Iri> {
        let line = self.line;
        let prefix = self.pname_prefix()?;
        // `prefix` may legally end in '.', but a trailing '.' belongs to the
        // statement terminator; pname_prefix is greedy so back off.
        let mut prefix = prefix;
        while prefix.ends_with('.') {
            prefix.pop();
            self.pos -= 1;
        }
        if self.at_end() || self.peek() != b':' {
            return Err(self.err(format!("expected `:` in prefixed name after `{prefix}`")));
        }
        self.bump();
        let start = self.pos;
        while !self.at_end() {
            let c = self.peek();
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'%' {
                self.bump();
            } else if c == b'.' {
                // Dots are legal mid-local (including runs of dots) but a
                // trailing dot terminates the statement instead. Look past
                // the run of dots to decide.
                let mut ahead = 1;
                while self.peek_at(ahead) == Some(b'.') {
                    ahead += 1;
                }
                let continues = self
                    .peek_at(ahead)
                    .is_some_and(|n| n.is_ascii_alphanumeric() || n == b'_' || n == b'-');
                if continues {
                    for _ in 0..ahead {
                        self.bump();
                    }
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        let local = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
        let ns = self
            .prefixes
            .get(&prefix)
            .ok_or(RdfError::UnknownPrefix { line, prefix: prefix.clone() })?;
        Iri::new(format!("{ns}{local}"))
    }

    fn literal(&mut self) -> Result<Literal> {
        let quote = self.bump(); // `"` or `'`
        let triple_quoted = self.peek_at(0) == Some(quote) && self.peek_at(1) == Some(quote);
        if triple_quoted {
            self.bump();
            self.bump();
        }
        let mut out = String::new();
        loop {
            if self.at_end() {
                return Err(self.err("unterminated string literal"));
            }
            let c = self.bump();
            if c == quote {
                if !triple_quoted {
                    break;
                }
                if self.peek_at(0) == Some(quote) && self.peek_at(1) == Some(quote) {
                    self.bump();
                    self.bump();
                    break;
                }
                out.push(quote as char);
                continue;
            }
            if c == b'\\' {
                if self.at_end() {
                    return Err(self.err("truncated escape"));
                }
                match self.bump() {
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'"' => out.push('"'),
                    b'\'' => out.push('\''),
                    b'\\' => out.push('\\'),
                    b'u' => out.push(self.unicode_escape(4)?),
                    b'U' => out.push(self.unicode_escape(8)?),
                    other => {
                        return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                    }
                }
                continue;
            }
            if c < 0x80 {
                if !triple_quoted && (c == b'\n' || c == b'\r') {
                    return Err(self.err("raw newline in single-quoted literal"));
                }
                out.push(c as char);
            } else {
                let mut buf = vec![c];
                while !self.at_end() && self.peek() & 0xC0 == 0x80 {
                    buf.push(self.bump());
                }
                out.push_str(
                    std::str::from_utf8(&buf).map_err(|_| self.err("invalid UTF-8 in literal"))?,
                );
            }
        }
        // Optional language tag or datatype.
        if !self.at_end() && self.peek() == b'@' {
            self.bump();
            let start = self.pos;
            while !self.at_end()
                && (self.peek().is_ascii_alphanumeric() || self.peek() == b'-')
            {
                self.bump();
            }
            let tag = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
            return Literal::lang(out, tag).map_err(|e| self.err(e.to_string()));
        }
        if self.peek_at(0) == Some(b'^') && self.peek_at(1) == Some(b'^') {
            self.bump();
            self.bump();
            self.skip_ws();
            let dt = if !self.at_end() && self.peek() == b'<' {
                let raw = self.iriref()?;
                self.make_iri(raw)?
            } else {
                self.prefixed_name()?
            };
            if dt.as_str() == vocab::xsd::string().as_str() {
                return Ok(Literal::simple(out));
            }
            return Ok(Literal::typed(out, dt));
        }
        Ok(Literal::simple(out))
    }

    fn numeric_literal(&mut self) -> Result<Literal> {
        let start = self.pos;
        if self.peek() == b'+' || self.peek() == b'-' {
            self.bump();
        }
        let mut saw_dot = false;
        let mut saw_exp = false;
        while !self.at_end() {
            let c = self.peek();
            if c.is_ascii_digit() {
                self.bump();
            } else if c == b'.' && !saw_dot && !saw_exp {
                // A dot followed by a non-digit terminates the statement.
                if self.peek_at(1).is_some_and(|n| n.is_ascii_digit()) {
                    saw_dot = true;
                    self.bump();
                } else {
                    break;
                }
            } else if (c == b'e' || c == b'E') && !saw_exp {
                saw_exp = true;
                self.bump();
                if !self.at_end() && (self.peek() == b'+' || self.peek() == b'-') {
                    self.bump();
                }
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
        if text.is_empty() || text == "+" || text == "-" {
            return Err(self.err("malformed numeric literal"));
        }
        let datatype = if saw_exp {
            vocab::xsd::double()
        } else if saw_dot {
            vocab::xsd::decimal()
        } else {
            vocab::xsd::integer()
        };
        Ok(Literal::typed(text, datatype))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_statements() {
        let g = parse(
            "@prefix ex: <http://ex.org/> .\n\
             ex:alice ex:knows ex:bob , ex:carol ;\n\
                      ex:name \"Alice\"@en .\n",
        )
        .unwrap();
        assert_eq!(g.len(), 3);
        let alice: Subject = Iri::new("http://ex.org/alice").unwrap().into();
        assert_eq!(g.triples_matching(Some(&alice), None, None).count(), 3);
    }

    #[test]
    fn parses_a_keyword_and_booleans() {
        let g = parse(
            "@prefix ex: <http://ex.org/> .\n\
             ex:x a ex:Thing ; ex:flag true ; ex:other false .\n",
        )
        .unwrap();
        assert_eq!(g.len(), 3);
        let x: Subject = Iri::new("http://ex.org/x").unwrap().into();
        assert_eq!(
            g.object_for(&x, &vocab::rdf::type_()),
            Some(Term::Iri(Iri::new("http://ex.org/Thing").unwrap()))
        );
        assert_eq!(
            g.object_for(&x, &Iri::new("http://ex.org/flag").unwrap()),
            Some(Term::Literal(Literal::boolean(true)))
        );
    }

    #[test]
    fn parses_numeric_literals() {
        let g = parse(
            "@prefix ex: <http://ex.org/> .\n\
             ex:x ex:i 42 ; ex:d -0.75 ; ex:e 1.5e3 .\n",
        )
        .unwrap();
        let x: Subject = Iri::new("http://ex.org/x").unwrap().into();
        let i = g.object_for(&x, &Iri::new("http://ex.org/i").unwrap()).unwrap();
        assert_eq!(i.as_literal().unwrap().as_integer(), Some(42));
        let d = g.object_for(&x, &Iri::new("http://ex.org/d").unwrap()).unwrap();
        assert_eq!(d.as_literal().unwrap().as_double(), Some(-0.75));
        let e = g.object_for(&x, &Iri::new("http://ex.org/e").unwrap()).unwrap();
        assert_eq!(e.as_literal().unwrap().as_double(), Some(1500.0));
    }

    #[test]
    fn parses_datatyped_and_escaped_literals() {
        let g = parse(
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
             <http://ex.org/x> <http://ex.org/p> \"3.14\"^^xsd:decimal ;\n\
               <http://ex.org/q> \"line\\nbreak \\\"quoted\\\" \\u00e9\" .\n",
        )
        .unwrap();
        let x: Subject = Iri::new("http://ex.org/x").unwrap().into();
        let q = g.object_for(&x, &Iri::new("http://ex.org/q").unwrap()).unwrap();
        assert_eq!(q.as_literal().unwrap().lexical(), "line\nbreak \"quoted\" é");
    }

    #[test]
    fn parses_blank_nodes_and_property_lists() {
        let g = parse(
            "@prefix ex: <http://ex.org/> .\n\
             _:b1 ex:p ex:o .\n\
             ex:s ex:q [ ex:inner 1 ; ex:more 2 ] .\n",
        )
        .unwrap();
        assert_eq!(g.len(), 4);
        // The anonymous node is the object of ex:q and the subject of two triples.
        let s: Subject = Iri::new("http://ex.org/s").unwrap().into();
        let obj = g.object_for(&s, &Iri::new("http://ex.org/q").unwrap()).unwrap();
        let Term::Blank(b) = obj else { panic!("expected blank node") };
        let bs: Subject = b.into();
        assert_eq!(g.triples_matching(Some(&bs), None, None).count(), 2);
    }

    #[test]
    fn base_resolution() {
        let g = parse("@base <http://ex.org/> . <alice> <knows> <bob> .").unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.subject.as_iri().unwrap().as_str(), "http://ex.org/alice");
    }

    #[test]
    fn sparql_style_directives() {
        let g = parse("PREFIX ex: <http://ex.org/>\nex:a ex:b ex:c .").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn comments_are_skipped() {
        let g = parse(
            "# leading comment\n\
             @prefix ex: <http://ex.org/> . # trailing\n\
             ex:a ex:b ex:c . # done\n",
        )
        .unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn triple_quoted_strings() {
        let g = parse("<http://e.org/s> <http://e.org/p> \"\"\"multi\nline \"quote\" ok\"\"\" .")
            .unwrap();
        let lit = g.iter().next().unwrap().object;
        assert_eq!(lit.as_literal().unwrap().lexical(), "multi\nline \"quote\" ok");
    }

    #[test]
    fn error_reports_position() {
        let err = parse("@prefix ex: <http://ex.org/> .\nex:a ex:b ;;; .").unwrap_err();
        assert_eq!(err.line(), Some(2));
    }

    #[test]
    fn unknown_prefix_is_reported() {
        let err = parse("nope:a <http://e.org/p> <http://e.org/o> .").unwrap_err();
        assert!(matches!(err, RdfError::UnknownPrefix { ref prefix, .. } if prefix == "nope"));
    }

    #[test]
    fn unterminated_literal_is_an_error() {
        assert!(parse("<http://e.org/s> <http://e.org/p> \"oops .").is_err());
    }

    #[test]
    fn trailing_semicolon_is_legal() {
        let g = parse("@prefix ex: <http://ex.org/> . ex:a ex:b ex:c ; .").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn local_names_with_dots_and_digits() {
        let g = parse("@prefix ex: <http://ex.org/> . ex:v1.2 ex:p ex:o .").unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.subject.as_iri().unwrap().as_str(), "http://ex.org/v1.2");
    }
}
