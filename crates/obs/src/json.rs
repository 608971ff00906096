//! Minimal JSON helpers: string escaping for the emit path and a tiny
//! field extractor for consumers of the JSONL trace (tests, trace
//! tooling). The build has no serde; the trace format is flat objects
//! with string/number/bool values and arrays of numbers, which is all
//! these helpers handle.

use std::fmt::Write as _;

/// Append `s` to `out` as a JSON string literal (quotes included).
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Extract the raw value of `key` from a flat JSON object line:
/// `{"a":1,"b":"x"}` → `json_raw(line, "a") == Some("1")`,
/// `json_raw(line, "b") == Some("\"x\"")`. Returns the value as it
/// appears in the line (strings keep their quotes, escapes intact).
pub fn json_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let mut search_from = 0;
    loop {
        let rel = line[search_from..].find(&needle)?;
        let at = search_from + rel;
        // The match must be a key, not a substring of a value: keys in
        // our flat format are always preceded by `{` or `,`.
        let ok = at == 0
            || matches!(line.as_bytes()[at - 1], b'{' | b',') && !is_inside_string(&line[..at]);
        if ok {
            let start = at + needle.len();
            return Some(value_slice(&line[start..]));
        }
        search_from = at + needle.len();
    }
}

/// True if an opening quote in `prefix` is still unclosed.
fn is_inside_string(prefix: &str) -> bool {
    let mut inside = false;
    let mut escape = false;
    for b in prefix.bytes() {
        if escape {
            escape = false;
        } else if b == b'\\' {
            escape = true;
        } else if b == b'"' {
            inside = !inside;
        }
    }
    inside
}

/// The value starting at the beginning of `rest`: a string literal, an
/// array of numbers up to its `]`, or anything else up to the next `,`
/// or `}`.
fn value_slice(rest: &str) -> &str {
    if rest.starts_with('[') {
        rest.find(']').map_or(rest, |end| &rest[..=end])
    } else if rest.starts_with('"') {
        let mut escape = false;
        for (i, b) in rest.bytes().enumerate().skip(1) {
            if escape {
                escape = false;
            } else if b == b'\\' {
                escape = true;
            } else if b == b'"' {
                return &rest[..=i];
            }
        }
        rest
    } else {
        let end = rest
            .bytes()
            .position(|b| b == b',' || b == b'}')
            .unwrap_or(rest.len());
        &rest[..end]
    }
}

/// `json_raw` narrowed to an unsigned integer value.
pub fn json_u64(line: &str, key: &str) -> Option<u64> {
    json_raw(line, key)?.parse().ok()
}

/// `json_raw` narrowed to a float value.
pub fn json_f64(line: &str, key: &str) -> Option<f64> {
    json_raw(line, key)?.parse().ok()
}

/// `json_raw` narrowed to a string value, unescaped.
pub fn json_str(line: &str, key: &str) -> Option<String> {
    let raw = json_raw(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(c) => out.push(c),
            None => break,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_escaped_string() {
        let mut line = String::from("{\"cause\":");
        write_json_string(&mut line, "a \"b\"\n\tc\\d");
        line.push('}');
        assert_eq!(json_str(&line, "cause").unwrap(), "a \"b\"\n\tc\\d");
    }

    #[test]
    fn extracts_numbers_and_ignores_value_substrings() {
        let line = "{\"label\":\"node\\\":9\",\"node\":4,\"inaccuracy\":12.5}";
        assert_eq!(json_u64(line, "node"), Some(4));
        assert_eq!(json_f64(line, "inaccuracy"), Some(12.5));
        assert_eq!(json_u64(line, "missing"), None);
    }
}
