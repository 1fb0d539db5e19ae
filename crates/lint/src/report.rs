//! Findings and their human/JSON renderings.

use std::fmt;
use std::path::PathBuf;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is anchored to (workspace-relative when the
    /// check ran over a workspace root).
    pub file: PathBuf,
    /// 1-based line, or 0 for file-level findings.
    pub line: usize,
    /// Rule code (`DET001`..`DET005`, `SUP001`).
    pub code: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.code, self.message)
    }
}

/// Renders findings as a JSON array of `{file, line, code, message}`
/// objects — the machine-readable contract of `check --json`, consumed
/// by CI annotation steps without parsing human text.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 < findings.len() { "," } else { "" };
        out.push_str(&format!(
            "  {{\"file\": {}, \"line\": {}, \"code\": {}, \"message\": {}}}{}\n",
            json_str(&f.file.display().to_string()),
            f.line,
            json_str(f.code),
            json_str(&f.message),
            comma
        ));
    }
    out.push(']');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        let f = Finding {
            file: PathBuf::from("a\"b.rs"),
            line: 3,
            code: "DET001",
            message: "line1\nline2".into(),
        };
        let j = render_json(std::slice::from_ref(&f));
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("line1\\nline2"));
        assert!(j.starts_with('[') && j.ends_with(']'));
    }
}
