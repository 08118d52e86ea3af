//! The Chrome trace-event writer behind every trace pioeval exports,
//! and the JSON string escaper its hand-rolled JSON surfaces share.
//!
//! A document is the trace-event object form (`{"traceEvents": [...]}`)
//! and loads in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
//! Callers choose the tracks and events; this module writes every JSON
//! token: `process_name`/`thread_name` metadata, complete (`"X"`) and
//! counter (`"C"`) events, and integer `args`. Timestamps go in as
//! integer nanoseconds and come out as exact decimal microseconds
//! (`10205` ns → `10.205`), so no float round-off reaches the file.

use std::fmt::Write as _;

/// Escape `s` as the body of a JSON string literal.
pub fn esc(s: &str) -> String {
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

/// Append `ns` nanoseconds as exact decimal microseconds, without
/// trailing zeros: 1 → `0.001`, 10205 → `10.205`, 2000000 → `2000`.
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}", ns / 1_000);
    let frac = ns % 1_000;
    if frac != 0 {
        out.push_str(format!(".{frac:03}").trim_end_matches('0'));
    }
}

/// One trace-event document under construction. Events keep the order
/// they are added in; [`TraceWriter::finish`] closes the document.
#[derive(Default)]
pub struct TraceWriter {
    events: String,
}

impl TraceWriter {
    /// Start the next event object with the fields every event carries.
    fn open(&mut self, ph: char, pid: u32, tid: u32, name: &str) {
        if !self.events.is_empty() {
            self.events.push_str(",\n");
        }
        let _ = write!(
            self.events,
            "{{\"ph\": \"{ph}\", \"pid\": {pid}, \"tid\": {tid}, \"name\": \"{}\"",
            esc(name)
        );
    }

    /// End the event object opened last, with `args` when there are any.
    fn close(&mut self, args: &[(&str, u64)]) {
        if !args.is_empty() {
            self.events.push_str(", \"args\": {");
            for (i, (key, value)) in args.iter().enumerate() {
                let sep = if i > 0 { ", " } else { "" };
                let _ = write!(self.events, "{sep}\"{}\": {value}", esc(key));
            }
            self.events.push('}');
        }
        self.events.push('}');
    }

    fn metadata(&mut self, kind: &str, pid: u32, tid: u32, name: &str) {
        self.open('M', pid, tid, kind);
        let _ = write!(self.events, ", \"args\": {{\"name\": \"{}\"}}}}", esc(name));
    }

    /// Name process `pid`; Perfetto shows it as the header of its tracks.
    pub fn name_process(&mut self, pid: u32, name: &str) {
        self.metadata("process_name", pid, 0, name);
    }

    /// Name the track of thread `tid` in process `pid`.
    pub fn name_thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.metadata("thread_name", pid, tid, name);
    }

    /// A complete (`"X"`) slice on track (`pid`, `tid`) covering
    /// `[start_ns, start_ns + dur_ns)`, with optional integer `args`.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        start_ns: u64,
        dur_ns: u64,
        args: &[(&str, u64)],
    ) {
        self.open('X', pid, tid, name);
        let _ = write!(self.events, ", \"cat\": \"{}\", \"ts\": ", esc(cat));
        push_us(&mut self.events, start_ns);
        self.events.push_str(", \"dur\": ");
        push_us(&mut self.events, dur_ns);
        self.close(args);
    }

    /// One sample of counter track `name` in process `pid`: `value` as of
    /// `ts_ns`.
    pub fn counter(&mut self, pid: u32, name: &str, ts_ns: u64, value: u64) {
        self.open('C', pid, 0, name);
        self.events.push_str(", \"ts\": ");
        push_us(&mut self.events, ts_ns);
        self.close(&[("value", value)]);
    }

    /// The finished document.
    pub fn finish(self) -> String {
        if self.events.is_empty() {
            return "{\"traceEvents\": []}\n".to_string();
        }
        format!("{{\"traceEvents\": [\n{}\n]}}\n", self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn timestamps_render_as_exact_microseconds() {
        let mut w = TraceWriter::default();
        for ns in [1, 999, 10_205, 2_000_000] {
            w.complete(1, 0, "s", "c", ns, ns, &[]);
        }
        let doc = w.finish();
        for us in ["0.001", "0.999", "10.205", "2000"] {
            assert!(
                doc.contains(&format!("\"ts\": {us}, \"dur\": {us}}}")),
                "{us} missing from {doc}"
            );
        }
    }

    #[test]
    fn hostile_names_round_trip() {
        let hostile = "q\"b\\n\nc\u{1}é✓";
        let mut w = TraceWriter::default();
        w.name_process(1, hostile);
        w.name_thread(1, 2, hostile);
        w.complete(1, 2, hostile, hostile, 0, 5, &[(hostile, 7)]);
        w.counter(1, hostile, 5, 9);
        let doc = w.finish();
        let v = serde_json::parse(&doc).expect("trace JSON must parse");
        let Some(Value::Seq(events)) = v.get("traceEvents") else {
            panic!("missing traceEvents in {doc}");
        };
        assert_eq!(events.len(), 4);
        let text = |v: Option<&Value>| match v {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("expected string, got {other:?}"),
        };
        for meta in &events[..2] {
            assert_eq!(text(meta.get("args").and_then(|a| a.get("name"))), hostile);
        }
        assert_eq!(text(events[2].get("name")), hostile);
        assert_eq!(text(events[2].get("cat")), hostile);
        let args = events[2].get("args").expect("args");
        assert!(matches!(args.get(hostile), Some(Value::U64(7))));
        assert_eq!(text(events[3].get("name")), hostile);
    }

    #[test]
    fn empty_document_parses() {
        let v = serde_json::parse(&TraceWriter::default().finish()).expect("must parse");
        assert!(matches!(v.get("traceEvents"), Some(Value::Seq(e)) if e.is_empty()));
    }
}
