//! A small Rust source lexer: just enough to separate code from comments
//! and string literals, without pulling in `syn` (the linter must stay
//! dependency-free so the lint gate can never fail to build).
//!
//! The output is a *masked* copy of the source — same byte length, same
//! line structure — where comment bodies and string-literal contents are
//! blanked out. Rules scan the masked text with plain substring searches
//! and can never be fooled by a rule's token appearing inside a string or
//! a comment. String literals are also returned as a separate list (with
//! positions) for the telemetry rules.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide count of `mask` invocations. The engine lexes each file
/// exactly once and shares the result across all rule families; this
/// counter lets a regression test prove that stays true (see
/// `crates/lint/tests/lex_cache.rs`).
static MASK_CALLS: AtomicUsize = AtomicUsize::new(0);

/// Total number of times `mask` has run in this process.
#[allow(dead_code, reason = "read from the lib surface (tests), not the CLI")]
pub fn mask_calls() -> usize {
    MASK_CALLS.load(Ordering::Relaxed)
}

/// A string literal found in the source (contents, not including quotes).
#[derive(Debug, Clone)]
pub struct StrLit {
    /// Byte offset of the opening quote in the (masked) text.
    pub start: usize,
    /// 1-based line number.
    pub line: u32,
    pub value: String,
}

/// Lexed view of one source file.
#[derive(Debug)]
pub struct Masked {
    /// Source with comment bodies and string contents replaced by spaces.
    /// Byte length and newline positions match the original exactly.
    pub text: String,
    pub strings: Vec<StrLit>,
}

impl Masked {
    /// 1-based line number of a byte offset into `text`.
    pub fn line_of(&self, offset: usize) -> u32 {
        1 + self.text.as_bytes()[..offset]
            .iter()
            .filter(|&&b| b == b'\n')
            .count() as u32
    }
}

/// Lex `src`, producing the masked text plus the string-literal table.
pub fn mask(src: &str) -> Masked {
    MASK_CALLS.fetch_add(1, Ordering::Relaxed);
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut strings = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;

    // Push a byte into the masked output, blanking non-newline bytes.
    fn blank(out: &mut Vec<u8>, b: u8) {
        out.push(if b == b'\n' { b'\n' } else { b' ' });
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                out.push(b'\n');
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                // Line comment: blank it out.
                let mut j = i + 2;
                while j < bytes.len() && bytes[j] != b'\n' {
                    j += 1;
                }
                for &c in &bytes[i..j] {
                    blank(&mut out, c);
                }
                i = j;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                // Block comment, possibly nested.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && j + 1 < bytes.len() && bytes[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && j + 1 < bytes.len() && bytes[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        if bytes[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                for &c in &bytes[i..j] {
                    blank(&mut out, c);
                }
                i = j;
            }
            b'"' => {
                let (j, value, newlines) = scan_string(src, i);
                strings.push(StrLit {
                    start: i,
                    line,
                    value,
                });
                out.push(b'"');
                for &c in &bytes[i + 1..j.saturating_sub(1)] {
                    blank(&mut out, c);
                }
                if j > i + 1 {
                    out.push(b'"');
                }
                line += newlines;
                i = j;
            }
            b'r' | b'b' if starts_raw_or_byte_string(bytes, i) => {
                let (lit_start, j, value, newlines) = scan_raw_or_byte(src, i);
                strings.push(StrLit {
                    start: i,
                    line,
                    value,
                });
                // Keep the prefix chars and both quote positions visible,
                // blank everything between.
                out.extend_from_slice(&bytes[i..lit_start]);
                out.push(b'"');
                for &c in &bytes[lit_start + 1..j.saturating_sub(1).max(lit_start + 1)] {
                    blank(&mut out, c);
                }
                if j > lit_start + 1 {
                    out.push(b'"');
                }
                line += newlines;
                i = j;
            }
            b'\'' => {
                // Char literal vs lifetime. `'\..'` and `'x'` are chars;
                // `'ident` (no closing quote right after) is a lifetime.
                if is_char_literal(bytes, i) {
                    let j = scan_char(bytes, i);
                    out.push(b'\'');
                    for &c in &bytes[i + 1..j - 1] {
                        blank(&mut out, c);
                    }
                    out.push(b'\'');
                    i = j;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }

    Masked {
        text: String::from_utf8(out).expect("masking preserves utf8 structure"),
        strings,
    }
}

/// Scan a plain `"..."` string starting at the opening quote. Returns
/// (index past closing quote, contents, newline count inside).
fn scan_string(src: &str, start: usize) -> (usize, String, u32) {
    let bytes = src.as_bytes();
    let mut j = start + 1;
    let mut newlines = 0;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => {
                return (j + 1, src[start + 1..j].to_string(), newlines);
            }
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (j, src[start + 1..].to_string(), newlines)
}

/// Does `r`, `b`, `br`, `rb` at `i` begin a raw/byte string literal?
fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j < bytes.len() && bytes[j] == b'r' {
        j += 1;
        // r"..."  or  r#"..."#
        while j < bytes.len() && bytes[j] == b'#' {
            j += 1;
        }
        return j < bytes.len() && bytes[j] == b'"';
    }
    // b"..."
    bytes[i] == b'b' && j < bytes.len() && bytes[j] == b'"'
}

/// Scan a raw or byte string starting at the prefix. Returns
/// (offset of opening quote, index past closing quote, contents, newlines).
fn scan_raw_or_byte(src: &str, start: usize) -> (usize, usize, String, u32) {
    let bytes = src.as_bytes();
    let mut j = start;
    let mut raw = false;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j < bytes.len() && bytes[j] == b'r' {
        raw = true;
        j += 1;
    }
    let mut hashes = 0;
    while j < bytes.len() && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    let quote = j; // at the opening `"`
    j += 1;
    let mut newlines = 0;
    while j < bytes.len() {
        if bytes[j] == b'\n' {
            newlines += 1;
            j += 1;
        } else if !raw && bytes[j] == b'\\' {
            j += 2;
        } else if bytes[j] == b'"' {
            if hashes == 0 {
                return (quote, j + 1, src[quote + 1..j].to_string(), newlines);
            }
            // Need `"` followed by `hashes` x `#`.
            let mut k = j + 1;
            let mut seen = 0;
            while k < bytes.len() && bytes[k] == b'#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (quote, k, src[quote + 1..j].to_string(), newlines);
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    (quote, j, src[quote + 1..].to_string(), newlines)
}

/// `'` at `i`: char literal (vs lifetime) lookahead. A char literal is
/// `'\...'` or exactly one character followed by a closing quote —
/// anything else (`'a>`, `'static`, `'a,`) is a lifetime.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    if i + 1 >= bytes.len() {
        return false;
    }
    let c = bytes[i + 1];
    if c == b'\\' {
        return true; // '\n', '\'', '\u{..}'
    }
    if c == b'\'' {
        return false;
    }
    let len = match c {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    };
    i + 1 + len < bytes.len() && bytes[i + 1 + len] == b'\''
}

/// Scan past a char literal starting at the opening quote.
fn scan_char(bytes: &[u8], start: usize) -> usize {
    let mut j = start + 1;
    if j < bytes.len() && bytes[j] == b'\\' {
        j += 2;
        // \u{...}
        if j <= bytes.len() && bytes[j - 1] == b'u' && j < bytes.len() && bytes[j] == b'{' {
            while j < bytes.len() && bytes[j] != b'}' {
                j += 1;
            }
            j += 1;
        }
    } else {
        j += 1;
        while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
            j += 1;
        }
    }
    if j < bytes.len() && bytes[j] == b'\'' {
        j + 1
    } else {
        j
    }
}
