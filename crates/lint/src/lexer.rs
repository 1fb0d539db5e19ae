//! A small comment/string/raw-string-aware Rust lexer.
//!
//! The linter never needs a full token tree — every rule works on a
//! *scrubbed* view of a source file in which string-literal contents
//! and comments are blanked out of the code channel and routed to side
//! channels instead. That makes word-level
//! matching (`HashMap`, `Instant::now`, `push("key"`) immune to the
//! classic false positives: `"a HashMap in a string"`, `// HashMap in a
//! comment`, `r#"nested "quotes" with HashMap"#`, nested block
//! comments, and `//` sequences inside string literals.
//!
//! The scrub is line-preserving: `code_lines[i]`, `comment_lines[i]`
//! and the original file line `i + 1` always refer to the same line, so
//! findings carry exact 1-based line numbers.

/// One string literal encountered in the file, with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrLit {
    /// 1-based line of the literal's opening quote.
    pub line: usize,
    /// Byte column (0-based) of the opening delimiter on that line.
    pub col: usize,
    /// The literal's raw content (escapes *not* resolved).
    pub content: String,
}

/// The scrubbed view of one source file.
#[derive(Debug, Clone, Default)]
pub struct Scrubbed {
    /// Per line: the code with comments and string/char contents
    /// replaced by spaces (delimiters too). Identifier and punctuation
    /// positions are byte-preserved.
    pub code_lines: Vec<String>,
    /// Per line: the concatenated comment text of that line (line
    /// comments, doc comments, and every line a block comment spans).
    pub comment_lines: Vec<String>,
    /// Every string literal (plain, raw, byte, byte-raw) in file order.
    pub strings: Vec<StrLit>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Block comments nest in Rust; the payload is the current depth.
    BlockComment(u32),
    Str {
        raw_hashes: Option<u32>,
    },
}

/// Scrubs a source file. Total: never panics, for arbitrary input
/// (property-tested), and always yields exactly one code/comment line
/// per input line.
pub fn scrub(source: &str) -> Scrubbed {
    let mut out = Scrubbed::default();
    let mut state = State::Code;
    // Accumulator for the string literal currently being lexed.
    let mut cur_str: Option<StrLit> = None;

    for (line_idx, line) in source.split('\n').enumerate() {
        let bytes = line.as_bytes();
        let mut code = vec![b' '; bytes.len()];
        let mut comment = String::new();
        let mut i = 0usize;

        // A line comment never crosses a newline.
        if state == State::LineComment {
            state = State::Code;
        }

        while i < bytes.len() {
            match state {
                State::Code => {
                    let b = bytes[i];
                    let next = bytes.get(i + 1).copied();
                    if b == b'/' && next == Some(b'/') {
                        comment.push_str(&line[i..]);
                        state = State::LineComment;
                        i = bytes.len();
                    } else if b == b'/' && next == Some(b'*') {
                        state = State::BlockComment(1);
                        i += 2;
                    } else if b == b'"' {
                        cur_str =
                            Some(StrLit { line: line_idx + 1, col: i, content: String::new() });
                        state = State::Str { raw_hashes: None };
                        i += 1;
                    } else if let Some(h) = raw_string_open(bytes, i) {
                        cur_str =
                            Some(StrLit { line: line_idx + 1, col: i, content: String::new() });
                        state = State::Str { raw_hashes: Some(h.hashes) };
                        i += h.open_len;
                    } else if b == b'\'' && !prev_is_ident(bytes, i) {
                        // Char literal vs lifetime: `'\...'` and `'X'`
                        // are char literals; anything else (`'a`,
                        // `'static`) is a lifetime and stays code.
                        if let Some(len) = char_literal_len(bytes, i) {
                            i += len; // blank the whole literal
                        } else {
                            code[i] = b;
                            i += 1;
                        }
                    } else {
                        code[i] = b;
                        i += 1;
                    }
                }
                State::LineComment => unreachable!("reset at line start"),
                State::BlockComment(depth) => {
                    let next = bytes.get(i + 1).copied();
                    if bytes[i] == b'*' && next == Some(b'/') {
                        comment.push(' ');
                        if depth == 1 {
                            state = State::Code;
                        } else {
                            state = State::BlockComment(depth - 1);
                        }
                        i += 2;
                    } else if bytes[i] == b'/' && next == Some(b'*') {
                        state = State::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        // Push whole UTF-8 chars, not bytes.
                        let ch_len = utf8_len(bytes[i]);
                        comment.push_str(lossy_slice(line, i, ch_len));
                        i += ch_len;
                    }
                }
                State::Str { raw_hashes } => {
                    let s = cur_str.as_mut().expect("string literal in flight");
                    match raw_hashes {
                        None => {
                            if bytes[i] == b'\\' {
                                // Keep the escape raw; skip both bytes
                                // so `\"` cannot close the literal.
                                s.content.push_str(lossy_slice(line, i, 2));
                                i += 1 + utf8_len(*bytes.get(i + 1).unwrap_or(&b' '));
                            } else if bytes[i] == b'"' {
                                out.strings.push(cur_str.take().expect("literal"));
                                state = State::Code;
                                i += 1;
                            } else {
                                let ch_len = utf8_len(bytes[i]);
                                s.content.push_str(lossy_slice(line, i, ch_len));
                                i += ch_len;
                            }
                        }
                        Some(h) => {
                            if bytes[i] == b'"' && closes_raw(bytes, i, h) {
                                out.strings.push(cur_str.take().expect("literal"));
                                state = State::Code;
                                i += 1 + h as usize;
                            } else {
                                let ch_len = utf8_len(bytes[i]);
                                s.content.push_str(lossy_slice(line, i, ch_len));
                                i += ch_len;
                            }
                        }
                    }
                }
            }
        }

        // Multi-line string literals keep their line structure in the
        // captured content (the rules must still see *nothing* of the
        // string in the code channel).
        if let (State::Str { .. }, Some(s)) = (state, cur_str.as_mut()) {
            s.content.push('\n');
        }

        out.code_lines.push(String::from_utf8(code).expect("spaces and ASCII code bytes"));
        out.comment_lines.push(comment);
    }
    // An unterminated literal at EOF is malformed Rust; record what we
    // saw rather than lose it (and never panic).
    if let Some(s) = cur_str.take() {
        out.strings.push(s);
    }
    out
}

struct RawOpen {
    hashes: u32,
    open_len: usize,
}

/// Detects `r"`, `r#"`, `br##"`, ... at byte `i` (not inside an
/// identifier: `attr"` or `bar"` must not start a raw string).
fn raw_string_open(bytes: &[u8], i: usize) -> Option<RawOpen> {
    if prev_is_ident(bytes, i) {
        return None;
    }
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&b'"') {
        Some(RawOpen { hashes, open_len: j + 1 - i })
    } else {
        None
    }
}

/// Whether the `"` at byte `i` is followed by `hashes` `#`s.
fn closes_raw(bytes: &[u8], i: usize, hashes: u32) -> bool {
    let h = hashes as usize;
    i + h < bytes.len() + 1
        && bytes[i + 1..].len() >= h
        && bytes[i + 1..i + 1 + h].iter().all(|&b| b == b'#')
}

/// Length in bytes of a char literal starting at the `'` at byte `i`,
/// or `None` if this `'` starts a lifetime instead.
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    let body = bytes.get(i + 1)?;
    if *body == b'\\' {
        // Escaped char literal: scan to the closing quote.
        let mut j = i + 2;
        while j < bytes.len() {
            match bytes[j] {
                b'\\' => j += 2,
                b'\'' => return Some(j + 1 - i),
                _ => j += 1,
            }
        }
        None
    } else {
        // `'X'` (X = any single char, possibly multi-byte).
        let len = utf8_len(*body);
        if bytes.get(i + 1 + len) == Some(&b'\'') {
            Some(2 + len)
        } else {
            None // a lifetime like 'a or 'static
        }
    }
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// Byte length of the UTF-8 char whose first byte is `b` (1 for
/// continuation/invalid bytes, so progress is always made).
fn utf8_len(b: u8) -> usize {
    match b {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

/// A panic-proof slice of up to `len` bytes starting at `i`, snapped to
/// char boundaries.
fn lossy_slice(line: &str, i: usize, len: usize) -> &str {
    let end = (i + len).min(line.len());
    let mut start = i.min(line.len());
    while start > 0 && !line.is_char_boundary(start) {
        start -= 1;
    }
    let mut e = end;
    while e < line.len() && !line.is_char_boundary(e) {
        e += 1;
    }
    &line[start..e.min(line.len())]
}

/// Iterator over word-boundary occurrences of `word` in scrubbed code.
/// "Word" means: not preceded or followed by `[A-Za-z0-9_]`.
pub fn word_positions<'a>(code: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = code.as_bytes();
    code.match_indices(word).filter_map(move |(pos, _)| {
        let before_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
        let after = pos + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        (before_ok && after_ok).then_some(pos)
    })
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `code` contains `word` at a word boundary (eagerly
/// evaluated, so `word` may be a temporary).
pub fn has_word(code: &str, word: &str) -> bool {
    word_positions(code, word).next().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_strings_and_comments() {
        let s = scrub("let x = \"HashMap\"; // HashMap here\nuse std::collections::HashMap;");
        assert!(!s.code_lines[0].contains("HashMap"));
        assert!(s.comment_lines[0].contains("HashMap here"));
        assert!(s.code_lines[1].contains("HashMap"));
        assert_eq!(s.strings.len(), 1);
        assert_eq!(s.strings[0].content, "HashMap");
    }

    #[test]
    fn line_structure_is_preserved() {
        let src = "a\n/* b\nc */ d\ne";
        let s = scrub(src);
        assert_eq!(s.code_lines.len(), 4);
        assert_eq!(s.comment_lines.len(), 4);
        assert!(s.code_lines[2].contains('d'));
        assert!(s.comment_lines[1].contains('b'));
    }

    #[test]
    fn word_boundaries() {
        let hits: Vec<_> =
            word_positions("HashMap MyHashMap HashMaps HashMap", "HashMap").collect();
        assert_eq!(hits.len(), 2);
    }
}
