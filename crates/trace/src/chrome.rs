//! Chrome trace-event JSON export.
//!
//! Renders [`TraceEvent`]s in the Chrome trace-event format (the
//! "JSON Array Format" wrapped in a `traceEvents` object), which loads
//! directly in `chrome://tracing` and `ui.perfetto.dev`. Each span
//! becomes a duration `B`/`E` event pair; the caller owes well-nested
//! per-thread streams. The vendored serde shim has no JSON serializer,
//! so the document is hand-formatted with explicit string escaping —
//! and [`validate_chrome_trace`] is the structural check tests (and
//! suspicious operators) can run against an export.

use crate::{Phase, TraceEvent};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Escapes a string for a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders events as a `chrome://tracing`-loadable JSON document.
///
/// Timestamps are microseconds since the trace's origin (the `ts`
/// unit the format mandates), kept as fractional values so nanosecond
/// spans survive. All events share `pid` 1; `tid` is the event's
/// thread lane.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        let ph = match e.phase {
            Phase::Begin => "B",
            Phase::End => "E",
        };
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"cat\": \"copse\", \"ph\": \"{}\", \
             \"ts\": {:.3}, \"pid\": 1, \"tid\": {}}}",
            escape_json(&e.name),
            ph,
            e.ts_nanos as f64 / 1e3,
            e.tid,
        );
        out.push_str(if i + 1 == events.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Structurally validates a Chrome trace export: the document must be
/// well-formed JSON, carry a `traceEvents` array, and every thread's
/// `B`/`E` events must balance with `E` never closing an empty stack
/// (the well-nestedness `chrome://tracing` assumes).
///
/// # Errors
///
/// Returns a description of the first structural violation found.
pub fn validate_chrome_trace(json: &str) -> Result<(), String> {
    let value = json::parse(json)?;
    let json::Value::Object(top) = &value else {
        return Err("top level is not an object".into());
    };
    let Some(json::Value::Array(events)) =
        top.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v)
    else {
        return Err("no traceEvents array".into());
    };
    let mut depth: HashMap<i64, i64> = HashMap::new();
    for (i, event) in events.iter().enumerate() {
        let json::Value::Object(fields) = event else {
            return Err(format!("event {i} is not an object"));
        };
        let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let Some(json::Value::String(ph)) = field("ph") else {
            return Err(format!("event {i} has no ph"));
        };
        let Some(json::Value::Number(tid)) = field("tid") else {
            return Err(format!("event {i} has no numeric tid"));
        };
        if field("name").is_none() || field("ts").is_none() {
            return Err(format!("event {i} lacks name or ts"));
        }
        let d = depth.entry(*tid as i64).or_insert(0);
        match ph.as_str() {
            "B" => *d += 1,
            "E" => {
                *d -= 1;
                if *d < 0 {
                    return Err(format!("event {i}: E with no open B on tid {tid}"));
                }
            }
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    for (tid, d) in depth {
        if d != 0 {
            return Err(format!("tid {tid} ends with {d} unclosed span(s)"));
        }
    }
    Ok(())
}

/// A miniature JSON parser — just enough to structurally validate the
/// exporter's output without a serde_json dependency (the offline
/// shim policy). Numbers are parsed as `f64`; that is all the trace
/// format needs.
mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number.
        Number(f64),
        /// A string literal.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, insertion-ordered.
        Object(Vec<(String, Value)>),
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<Value, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {pos}", c as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {pos}"))
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            let value = parse_value(b, pos)?;
            fields.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {pos}")),
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(&c) if c < 0x20 => return Err("control byte in string".into()),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let s = &b[*pos..];
                    let text = std::str::from_utf8(s).map_err(|_| "invalid UTF-8")?;
                    let c = text.chars().next().expect("nonempty");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn event(name: &'static str, phase: Phase, ts_nanos: u64, tid: u64) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed(name),
            phase,
            ts_nanos,
            tid,
        }
    }

    #[test]
    fn export_of_balanced_events_validates() {
        let events = vec![
            event("stage:comparison", Phase::Begin, 0, 1),
            event("mat_vec", Phase::Begin, 1_000, 1),
            event("mat_vec", Phase::End, 5_000, 1),
            event("stage:comparison", Phase::End, 9_500, 1),
            event("mat_vec", Phase::Begin, 500, 2),
            event("mat_vec", Phase::End, 4_200, 2),
        ];
        let json = chrome_trace_json(&events);
        validate_chrome_trace(&json).expect("valid export");
        assert!(json.contains("\"ph\": \"B\""));
        assert!(json.contains("\"ts\": 1.000"));
    }

    #[test]
    fn empty_export_is_still_a_valid_document() {
        let json = chrome_trace_json(&[]);
        validate_chrome_trace(&json).expect("empty trace is fine");
    }

    #[test]
    fn names_are_escaped() {
        let events = vec![
            event("weird \"name\"\n\\", Phase::Begin, 0, 1),
            event("weird \"name\"\n\\", Phase::End, 10, 1),
        ];
        let json = chrome_trace_json(&events);
        validate_chrome_trace(&json).expect("escaped names stay valid");
    }

    #[test]
    fn unbalanced_streams_are_rejected() {
        let dangling = chrome_trace_json(&[event("open", Phase::Begin, 0, 1)]);
        assert!(validate_chrome_trace(&dangling)
            .unwrap_err()
            .contains("unclosed"));
        let orphan = chrome_trace_json(&[event("close", Phase::End, 0, 1)]);
        assert!(validate_chrome_trace(&orphan)
            .unwrap_err()
            .contains("no open B"));
        // Balance is per-thread: a B on tid 1 cannot absorb an E on
        // tid 2.
        let crossed =
            chrome_trace_json(&[event("a", Phase::Begin, 0, 1), event("a", Phase::End, 1, 2)]);
        assert!(validate_chrome_trace(&crossed).is_err());
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for bad in ["", "{", "[1,2", "{\"traceEvents\": 3}", "{\"a\": 1} x"] {
            assert!(validate_chrome_trace(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn mini_parser_handles_the_grammar() {
        let v = json::parse(
            "{\"a\": [1, 2.5, -3e2], \"b\": {\"nested\": true}, \
             \"c\": null, \"d\": \"x\\u0041\\n\", \"e\": []}",
        )
        .expect("parses");
        let json::Value::Object(fields) = v else {
            panic!("not an object")
        };
        assert_eq!(fields.len(), 5);
        assert_eq!(
            fields[3].1,
            json::Value::String("xA\n".into()),
            "escapes decoded"
        );
    }
}
