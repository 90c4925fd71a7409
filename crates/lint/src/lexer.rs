//! A token-level Rust lexer, sufficient for lint rules.
//!
//! The old CI lints were `grep -rE` patterns, which cannot tell an
//! identifier in code from the same word inside a string literal, a
//! comment, or a doc example — and cannot see a call chain split across
//! lines at all. This lexer produces a flat token stream with line
//! numbers, handling the token forms that defeat regexes:
//!
//! - raw strings `r"…"` / `r#"…"#` (any number of hashes), byte strings;
//! - nested block comments `/* /* */ */`;
//! - lifetimes `'a` vs char literals `'a'` (including escapes `'\''`);
//! - raw identifiers `r#type`.
//!
//! Comments are not emitted as tokens; instead, `// lint: allow(rule-id)`
//! directives found inside them are collected separately so the rule
//! engine can suppress diagnostics (on the directive's line and the line
//! immediately after it).

/// What a token is. Only the distinctions the rules need are kept: every
/// keyword is an [`TokenKind::Ident`], and punctuation is one char each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers, hash stripped).
    Ident,
    /// Lifetime such as `'a` or `'static` (without the quote).
    Lifetime,
    /// Character literal, quotes and escapes included verbatim.
    CharLit,
    /// String literal of any form (plain, raw, byte), delimiters included.
    StrLit,
    /// Numeric literal.
    NumLit,
    /// A single punctuation character.
    Punct,
}

/// One lexed token: kind, verbatim text, and the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Verbatim source text (raw identifiers keep their `r#` prefix off).
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: usize,
}

impl Token {
    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// A `lint: allow(rule, …)` directive found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// Rule IDs listed in the directive.
    pub rules: Vec<String>,
    /// First line of the comment containing the directive.
    pub start_line: usize,
    /// Last line of the comment (same as `start_line` for line comments).
    pub end_line: usize,
}

/// Lexer output: the token stream plus any suppression directives.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order. Comments and whitespace are dropped.
    pub tokens: Vec<Token>,
    /// Suppression directives harvested from comments.
    pub allows: Vec<AllowDirective>,
}

/// Lexes `src` into tokens and allow-directives. The lexer is resilient:
/// malformed input never panics, it just degrades into `Punct` tokens.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    let n = chars.len();

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_char = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = chars[i];
        // Whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also doc comments `///`, `//!`). Doc comments
        // are documentation: prose that spells out the allow syntax in
        // them must neither suppress anything nor count as a directive.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            let is_doc = matches!(chars.get(start + 2), Some('/') | Some('!'))
                && chars.get(start + 3) != Some(&'/'); // `////…` is a plain rule
            if !is_doc {
                let text: String = chars[start..i].iter().collect();
                harvest_allow(&text, line, line, &mut out.allows);
            }
            continue;
        }
        // Block comment, possibly nested. `/**` and `/*!` are doc
        // comments and are skipped for directive harvesting like `///`.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let is_doc = (matches!(chars.get(i + 2), Some('*')) && chars.get(i + 3) != Some(&'/'))
                || matches!(chars.get(i + 2), Some('!'));
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            if !is_doc {
                let text: String = chars[start..i.min(n)].iter().collect();
                harvest_allow(&text, start_line, line, &mut out.allows);
            }
            continue;
        }
        // Raw strings, byte strings, raw identifiers — all start with an
        // ident-looking prefix, so disambiguate before the ident path.
        if c == 'r' || c == 'b' {
            if let Some((tok, next_i, lines)) = lex_prefixed_literal(&chars, i, line) {
                out.tokens.push(tok);
                i = next_i;
                line += lines;
                continue;
            }
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_char(chars[i]) {
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (is_ident_char(chars[i])) {
                i += 1;
            }
            // Fractional part: only consume `.` when a digit follows, so
            // `1.0` is one token but `1..n` and `1.method()` are not.
            if i + 1 < n && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                i += 1;
                while i < n && is_ident_char(chars[i]) {
                    i += 1;
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::NumLit,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Plain string literal.
        if c == '"' {
            let (text, next_i, lines) = lex_quoted(&chars, i);
            out.tokens.push(Token {
                kind: TokenKind::StrLit,
                text,
                line,
            });
            i = next_i;
            line += lines;
            continue;
        }
        // Lifetime vs char literal.
        if c == '\'' {
            let (tok, next_i) = lex_quote(&chars, i, line);
            out.tokens.push(tok);
            i = next_i;
            continue;
        }
        // Everything else: one punctuation char.
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Lexes `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` or a raw identifier `r#name`
/// starting at `i`. Returns `None` if the prefix turns out to be a plain
/// identifier (e.g. `radius`), letting the main loop handle it.
fn lex_prefixed_literal(chars: &[char], i: usize, line: usize) -> Option<(Token, usize, usize)> {
    let n = chars.len();
    let mut j = i + 1;
    // `br` prefix.
    if chars[i] == 'b' && j < n && chars[j] == 'r' {
        j += 1;
    }
    // Plain byte string `b"…"`.
    if chars[i] == 'b' && j == i + 1 && j < n && chars[j] == '"' {
        let (text, next_i, lines) = lex_quoted(chars, j);
        let full = format!("b{text}");
        return Some((
            Token {
                kind: TokenKind::StrLit,
                text: full,
                line,
            },
            next_i,
            lines,
        ));
    }
    // Count hashes after the `r`.
    let mut hashes = 0;
    while j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j < n && chars[j] == '"' {
        // Raw string: scan for `"` followed by `hashes` hashes.
        let start = i;
        let mut lines = 0;
        j += 1;
        while j < n {
            if chars[j] == '\n' {
                lines += 1;
                j += 1;
                continue;
            }
            if chars[j] == '"' {
                let mut k = j + 1;
                let mut seen = 0;
                while k < n && seen < hashes && chars[k] == '#' {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    let text: String = chars[start..k].iter().collect();
                    return Some((
                        Token {
                            kind: TokenKind::StrLit,
                            text,
                            line,
                        },
                        k,
                        lines,
                    ));
                }
            }
            j += 1;
        }
        // Unterminated raw string: swallow the rest.
        let text: String = chars[start..n].iter().collect();
        return Some((
            Token {
                kind: TokenKind::StrLit,
                text,
                line,
            },
            n,
            lines,
        ));
    }
    // Raw identifier `r#name` (exactly one hash, ident follows).
    if chars[i] == 'r' && hashes == 1 && j < n && (chars[j].is_alphabetic() || chars[j] == '_') {
        let start = j;
        while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        return Some((
            Token {
                kind: TokenKind::Ident,
                text: chars[start..j].iter().collect(),
                line,
            },
            j,
            0,
        ));
    }
    None
}

/// Lexes a `"…"` string starting at the opening quote; returns (verbatim
/// text, index past the closing quote, newlines crossed).
fn lex_quoted(chars: &[char], i: usize) -> (String, usize, usize) {
    let n = chars.len();
    let start = i;
    let mut j = i + 1;
    let mut lines = 0;
    while j < n {
        match chars[j] {
            '\\' => j += 2,
            '\n' => {
                lines += 1;
                j += 1;
            }
            '"' => {
                j += 1;
                break;
            }
            _ => j += 1,
        }
    }
    (chars[start..j.min(n)].iter().collect(), j.min(n), lines)
}

/// Lexes a `'`-prefixed token: a lifetime (`'a`, `'static`) or a char
/// literal (`'a'`, `'\n'`, `'\''`).
fn lex_quote(chars: &[char], i: usize, line: usize) -> (Token, usize) {
    let n = chars.len();
    let is_ident_char = |c: char| c.is_alphanumeric() || c == '_';
    // Escaped char literal: `'\…'`.
    if i + 1 < n && chars[i + 1] == '\\' {
        let mut j = i + 2;
        if j < n {
            j += 1; // the escaped char itself
        }
        // `\u{…}` and multi-char escapes: scan to the closing quote.
        while j < n && chars[j] != '\'' && chars[j] != '\n' {
            j += 1;
        }
        let end = (j + 1).min(n);
        return (
            Token {
                kind: TokenKind::CharLit,
                text: chars[i..end].iter().collect(),
                line,
            },
            end,
        );
    }
    // `'a'` (char) vs `'a` / `'abc` (lifetime): a closing quote right
    // after a single ident char means char literal.
    if i + 1 < n && is_ident_char(chars[i + 1]) {
        if i + 2 < n && chars[i + 2] == '\'' {
            return (
                Token {
                    kind: TokenKind::CharLit,
                    text: chars[i..i + 3].iter().collect(),
                    line,
                },
                i + 3,
            );
        }
        let mut j = i + 1;
        while j < n && is_ident_char(chars[j]) {
            j += 1;
        }
        return (
            Token {
                kind: TokenKind::Lifetime,
                text: chars[i + 1..j].iter().collect(),
                line,
            },
            j,
        );
    }
    // Degenerate: a bare quote (e.g. inside macro garbage).
    (
        Token {
            kind: TokenKind::Punct,
            text: "'".to_string(),
            line,
        },
        i + 1,
    )
}

/// Scans comment text for `lint: allow(rule, …)` and records a directive.
fn harvest_allow(comment: &str, start_line: usize, end_line: usize, out: &mut Vec<AllowDirective>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        let after = &rest[pos + "lint: allow(".len()..];
        if let Some(close) = after.find(')') {
            let rules: Vec<String> = after[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            if !rules.is_empty() {
                out.push(AllowDirective {
                    rules,
                    start_line,
                    end_line,
                });
            }
            rest = &after[close..];
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn words_inside_strings_are_not_identifiers() {
        let src = r##"let x = "HashMap inside a string"; let y = HashSet;"##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"HashSet".to_string()));
    }

    #[test]
    fn raw_strings_with_hashes_are_single_tokens() {
        let src = r####"let s = r#"quote " and HashMap"#; stop"####;
        let lexed = lex(src);
        let strs: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::StrLit)
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("HashMap"));
        assert!(idents(src).contains(&"stop".to_string()));
        assert!(!idents(src).contains(&"HashMap".to_string()));
    }

    #[test]
    fn nested_block_comments_are_skipped_entirely() {
        let src = "before /* outer /* inner HashMap */ still comment */ after";
        let ids = idents(src);
        assert_eq!(ids, vec!["before", "after"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'a' }";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::CharLit)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert_eq!(chars, vec!["'a'"]);
    }

    #[test]
    fn escaped_char_literals_do_not_derail_the_lexer() {
        let src = r"let q = '\''; let nl = '\n'; let u = '\u{1F600}'; done";
        let lexed = lex(src);
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::CharLit)
            .count();
        assert_eq!(chars, 3);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn raw_identifiers_lex_as_identifiers() {
        let ids = idents("let r#type = 1; let radius = 2;");
        assert!(ids.contains(&"type".to_string()));
        assert!(ids.contains(&"radius".to_string()));
    }

    #[test]
    fn byte_strings_are_string_literals() {
        let lexed = lex(r###"let b = b"bytes"; let br = br#"raw bytes"#;"###);
        let strs = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::StrLit)
            .count();
        assert_eq!(strs, 2);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nline string\"\nb";
        let lexed = lex(src);
        let a = lexed.tokens.iter().find(|t| t.is_ident("a")).unwrap();
        let b = lexed.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(a.line, 1);
        assert_eq!(b.line, 4);
    }

    #[test]
    fn allow_directives_are_harvested_with_line_spans() {
        let src = "// lint: allow(no-unwrap-on-transport)\nlet x = 1;\n/* lint: allow(a, b)\n */\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 2);
        assert_eq!(lexed.allows[0].rules, vec!["no-unwrap-on-transport"]);
        assert_eq!(
            (lexed.allows[0].start_line, lexed.allows[0].end_line),
            (1, 1)
        );
        assert_eq!(lexed.allows[1].rules, vec!["a", "b"]);
        assert_eq!(
            (lexed.allows[1].start_line, lexed.allows[1].end_line),
            (3, 4)
        );
    }

    #[test]
    fn doc_comments_do_not_yield_allow_directives() {
        let src = "\
/// Suppress with `lint: allow(no-unwrap-on-transport)`.
//! Or `lint: allow(digest-field-coverage)`.
/** Or `lint: allow(all)`. */
// lint: allow(stats-merge-coverage)
let x = 1;
";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1, "only the plain comment counts");
        assert_eq!(lexed.allows[0].rules, vec!["stats-merge-coverage"]);
    }

    #[test]
    fn numbers_do_not_swallow_method_calls_or_ranges() {
        let src = "let a = 1.0; for i in 0..n { x.f(1.5e3); }";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("n")));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("f")));
        let nums: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::NumLit)
            .map(|t| t.text.clone())
            .collect();
        assert!(nums.contains(&"1.0".to_string()));
        assert!(nums.contains(&"1.5e3".to_string()));
    }
}
