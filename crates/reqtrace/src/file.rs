//! On-disk trace formats: the JSONL request-trace file and the
//! simulated-time Chrome trace export.
//!
//! All timestamps in both formats are **simulated** nanoseconds (the
//! DES clock), not wall-clock time — the wall-clock self-telemetry
//! Chrome trace comes from `--trace-out` instead.

use crate::assemble::{Bucket, RequestRecord, Span, WIRE_ENTITY};
use pioeval_obs::trace_event::{esc, TraceWriter};
use pioeval_types::{ReqOp, ServerKind, SimTime, NO_COLLECTIVE};

/// Format tag carried by the JSONL header line.
pub const FORMAT: &str = "pioeval-reqtrace/1";

/// Render the JSONL trace file: one header line
/// (`{"format":"pioeval-reqtrace/1",...}`) followed by one line per
/// completed request, in (issue time, tid) order.
pub fn write_jsonl(requests: &[RequestRecord], incomplete: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"format\":\"{FORMAT}\",\"requests\":{},\"incomplete\":{}}}\n",
        requests.len(),
        incomplete
    ));
    for r in requests {
        let b = r.breakdown();
        out.push_str(&format!(
            "{{\"tid\":{},\"rank\":{},\"op\":\"{}\",\"file\":{},\"bytes\":{},\"collective\":{},\
             \"issue_ns\":{},\"done_ns\":{},\"latency_ns\":{},\
             \"queue_ns\":{},\"service_ns\":{},\"device_ns\":{},\"fabric_ns\":{},\"spans\":[",
            r.tid,
            r.rank,
            r.op.name(),
            r.file,
            r.bytes,
            if r.in_collective() {
                r.collective.to_string()
            } else {
                "null".to_string()
            },
            r.issue.as_nanos(),
            r.done.as_nanos(),
            r.latency().as_nanos(),
            b[0],
            b[1],
            b[2],
            b[3],
        ));
        for (i, s) in r.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"entity\":{},\"label\":\"{}\",\"bucket\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.entity,
                esc(s.label),
                s.bucket.name(),
                s.start.as_nanos(),
                s.end.as_nanos(),
            ));
        }
        out.push_str("]}\n");
    }
    out
}

fn get_u64(v: &serde_json::Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(serde_json::Value::U64(n)) => Ok(*n),
        Some(serde_json::Value::I64(n)) if *n >= 0 => Ok(*n as u64),
        Some(serde_json::Value::F64(f)) if *f >= 0.0 => Ok(*f as u64),
        other => Err(format!("field {key:?}: expected number, got {other:?}")),
    }
}

/// A number that must fit a `u32` field (`rank`, `file`, `entity`,
/// `collective`): larger values are an error, not a truncation.
fn get_u32(v: &serde_json::Value, key: &str) -> Result<u32, String> {
    let n = get_u64(v, key)?;
    u32::try_from(n).map_err(|_| format!("field {key:?}: {n} does not fit in u32"))
}

fn get_str<'a>(v: &'a serde_json::Value, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(serde_json::Value::Str(s)) => Ok(s),
        other => Err(format!("field {key:?}: expected string, got {other:?}")),
    }
}

/// The static label an assembled span carries for `name`: `"wire"`,
/// `"fabric"` or a [`ServerKind`] name.
fn span_label(name: &str) -> Result<&'static str, String> {
    match name {
        "wire" => Ok("wire"),
        "fabric" => Ok("fabric"),
        _ => ServerKind::parse(name)
            .map(ServerKind::name)
            .ok_or_else(|| format!("unknown span label {name:?}")),
    }
}

/// Parse a JSONL trace file back into request records. Verifies the
/// header's format tag; returns `(requests, incomplete)`.
pub fn read_jsonl(text: &str) -> Result<(Vec<RequestRecord>, usize), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty trace file")?;
    let header = serde_json::parse(header_line).map_err(|e| format!("header: {e}"))?;
    let format = get_str(&header, "format")?;
    if format != FORMAT {
        return Err(format!(
            "unsupported trace format {format:?} (want {FORMAT:?})"
        ));
    }
    let incomplete = get_u64(&header, "incomplete").unwrap_or(0) as usize;

    let requests = lines
        .enumerate()
        .map(|(lineno, line)| read_request(line).map_err(|e| format!("line {}: {e}", lineno + 2)))
        .collect::<Result<_, _>>()?;
    Ok((requests, incomplete))
}

/// Parse one request line of a JSONL trace file.
fn read_request(line: &str) -> Result<RequestRecord, String> {
    let v = serde_json::parse(line).map_err(|e| e.to_string())?;
    let op_name = get_str(&v, "op")?;
    let op = ReqOp::parse(op_name).ok_or_else(|| format!("unknown op {op_name:?}"))?;
    let collective = match v.get("collective") {
        Some(serde_json::Value::Null) | None => NO_COLLECTIVE,
        Some(serde_json::Value::U64(_)) => get_u32(&v, "collective")?,
        other => return Err(format!("field \"collective\": bad value {other:?}")),
    };
    let mut spans = Vec::new();
    if let Some(serde_json::Value::Seq(items)) = v.get("spans") {
        for s in items {
            let bucket_name = get_str(s, "bucket")?;
            let bucket = Bucket::parse(bucket_name)
                .ok_or_else(|| format!("unknown bucket {bucket_name:?}"))?;
            spans.push(Span {
                entity: get_u32(s, "entity")?,
                label: span_label(get_str(s, "label")?)?,
                bucket,
                start: SimTime::from_nanos(get_u64(s, "start_ns")?),
                end: SimTime::from_nanos(get_u64(s, "end_ns")?),
            });
        }
    }
    Ok(RequestRecord {
        tid: get_u64(&v, "tid")?,
        rank: get_u32(&v, "rank")?,
        op,
        file: get_u32(&v, "file")?,
        bytes: get_u64(&v, "bytes")?,
        collective,
        issue: SimTime::from_nanos(get_u64(&v, "issue_ns")?),
        done: SimTime::from_nanos(get_u64(&v, "done_ns")?),
        spans,
    })
}

/// Render a simulated-time Chrome trace (`chrome://tracing` /
/// Perfetto): one track per server/gateway/fabric entity carrying its
/// attributed spans, plus one track per rank carrying each request's
/// whole `[issue, done]` interval. Timestamps are simulated time.
pub fn chrome_trace(requests: &[RequestRecord]) -> String {
    let mut trace = TraceWriter::default();
    // Metadata events first, so Perfetto names the two process groups
    // and every track inside them instead of showing bare pid/tid
    // numbers. Ranks live under pid 1, server/gateway entities under
    // pid 2 (named by the label attributed spans carry).
    if !requests.is_empty() {
        trace.name_process(1, "ranks");
        trace.name_process(2, "servers");
        let mut ranks: Vec<u32> = requests.iter().map(|r| r.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        for rank in ranks {
            trace.name_thread(1, rank, &format!("rank {rank}"));
        }
        let mut entities: Vec<(u32, &str)> = requests
            .iter()
            .flat_map(|r| r.spans.iter())
            .filter(|s| s.entity != WIRE_ENTITY)
            .map(|s| (s.entity, s.label))
            .collect();
        entities.sort_unstable();
        entities.dedup_by_key(|(e, _)| *e);
        for (entity, label) in entities {
            trace.name_thread(2, entity, &format!("{label} ({entity})"));
        }
    }
    for r in requests {
        let op = r.op.name();
        trace.complete(
            1,
            r.rank,
            op,
            "request",
            r.issue.as_nanos(),
            r.latency().as_nanos(),
            &[("tid", r.tid), ("bytes", r.bytes)],
        );
        for s in r.spans.iter().filter(|s| s.entity != WIRE_ENTITY) {
            trace.complete(
                2,
                s.entity,
                &format!("{} {op}", s.label),
                s.bucket.name(),
                s.start.as_nanos(),
                s.end.since(s.start).as_nanos(),
                &[("tid", r.tid)],
            );
        }
    }
    trace.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioeval_types::SimDuration;
    use serde_json::Value;

    fn sample() -> Vec<RequestRecord> {
        let t = SimTime::from_nanos;
        vec![RequestRecord {
            tid: (5u64 + 1) << 32 | 9,
            rank: 4,
            op: ReqOp::Read,
            file: 2,
            bytes: 4096,
            collective: 1,
            issue: t(100),
            done: t(400),
            spans: vec![
                Span {
                    entity: crate::assemble::WIRE_ENTITY,
                    label: "wire",
                    bucket: Bucket::Fabric,
                    start: t(100),
                    end: t(150),
                },
                Span {
                    entity: 12,
                    label: "oss",
                    bucket: Bucket::Device,
                    start: t(150),
                    end: t(400),
                },
            ],
        }]
    }

    #[test]
    fn jsonl_round_trips() {
        let reqs = sample();
        let text = write_jsonl(&reqs, 3);
        assert!(text.starts_with(&format!("{{\"format\":\"{FORMAT}\"")));
        let (back, incomplete) = read_jsonl(&text).unwrap();
        assert_eq!(incomplete, 3);
        assert_eq!(back, reqs);
        assert_eq!(back[0].latency(), SimDuration::from_nanos(300));
    }

    /// `sample()` written out with `from` replaced by `to`.
    fn edited(from: &str, to: &str) -> String {
        let text = write_jsonl(&sample(), 0);
        assert!(text.contains(from), "{from} not in {text}");
        text.replacen(from, to, 1)
    }

    #[test]
    fn jsonl_rejects_unknown_span_label() {
        let err = read_jsonl(&edited(r#""label":"oss""#, r#""label":"osd""#)).unwrap_err();
        assert_eq!(err, r#"line 2: unknown span label "osd""#);
    }

    #[test]
    fn jsonl_rejects_u32_fields_out_of_range() {
        for (from, to, field) in [
            (r#""rank":4"#, r#""rank":4294967296"#, "rank"),
            (r#""file":2"#, r#""file":4294967297"#, "file"),
            (
                r#""entity":12"#,
                r#""entity":18446744073709551615"#,
                "entity",
            ),
            (
                r#""collective":1"#,
                r#""collective":4294967296"#,
                "collective",
            ),
        ] {
            let err = read_jsonl(&edited(from, to)).unwrap_err();
            assert!(
                err.starts_with(&format!("line 2: field {field:?}: "))
                    && err.ends_with("does not fit in u32"),
                "{err}"
            );
        }
        // The largest u32 is a value, not an error: WIRE_ENTITY is one.
        let (back, _) = read_jsonl(&edited(r#""rank":4"#, r#""rank":4294967295"#)).unwrap();
        assert_eq!(back[0].rank, u32::MAX);
    }

    #[test]
    fn jsonl_rejects_wrong_format() {
        let err = read_jsonl("{\"format\":\"bogus/9\"}\n").unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn chrome_export_skips_wire_gaps_and_is_json() {
        let text = chrome_trace(&sample());
        let v = serde_json::parse(text.trim()).unwrap();
        let Some(serde_json::Value::Seq(events)) = v.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        // 2 process_name + 1 rank thread_name + 1 entity thread_name
        // metadata events, then one request-level event + one server
        // span (wire gap skipped).
        assert_eq!(events.len(), 6);
        let meta: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(serde_json::Value::Str(s)) if s == "M"))
            .collect();
        assert_eq!(meta.len(), 4);
        let named = |e: &serde_json::Value| match e.get("args").and_then(|a| a.get("name")) {
            Some(serde_json::Value::Str(s)) => s.clone(),
            other => panic!("metadata event without args.name: {other:?}"),
        };
        assert_eq!(named(meta[0]), "ranks");
        assert_eq!(named(meta[1]), "servers");
        assert_eq!(named(meta[2]), "rank 4");
        assert_eq!(named(meta[3]), "oss (12)");
    }

    /// One trace event as `ph pid tid name cat ts dur args`: strings
    /// quoted, `ts`/`dur` rounded to whole nanoseconds, absent fields `-`.
    fn event_line(e: &Value) -> String {
        let int = |v: &Value| match v {
            Value::U64(n) => *n,
            v => panic!("expected integer, got {v:?}"),
        };
        let text = |k: &str| match e.get(k) {
            None => "-".to_string(),
            Some(Value::Str(s)) => format!("{s:?}"),
            Some(v) => panic!("{k}: expected string, got {v:?}"),
        };
        let ns = |k: &str| match e.get(k) {
            None => "-".to_string(),
            Some(Value::U64(n)) => format!("{}", n * 1000),
            Some(Value::F64(f)) => format!("{}", (f * 1e3).round() as u64),
            Some(v) => panic!("{k}: expected number, got {v:?}"),
        };
        let args = match e.get("args") {
            None => "-".to_string(),
            Some(Value::Map(entries)) => entries
                .iter()
                .map(|(k, v)| match v {
                    Value::Str(s) => format!("{k}={s:?}"),
                    v => format!("{k}={}", int(v)),
                })
                .collect::<Vec<_>>()
                .join(","),
            Some(v) => panic!("args: expected object, got {v:?}"),
        };
        let Some(Value::Str(ph)) = e.get("ph") else {
            panic!("event without ph: {e:?}");
        };
        format!(
            "{ph} {} {} {} {} {} {} {}",
            int(e.get("pid").expect("pid")),
            int(e.get("tid").expect("tid")),
            text("name"),
            text("cat"),
            ns("ts"),
            ns("dur"),
            args
        )
    }

    #[test]
    fn chrome_export_emits_every_event_exactly() {
        let v = serde_json::parse(chrome_trace(&sample()).trim()).unwrap();
        let Some(Value::Seq(events)) = v.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        let lines: Vec<String> = events.iter().map(event_line).collect();
        let tid = (5u64 + 1) << 32 | 9;
        assert_eq!(
            lines,
            [
                r#"M 1 0 "process_name" - - - name="ranks""#.to_string(),
                r#"M 2 0 "process_name" - - - name="servers""#.to_string(),
                r#"M 1 4 "thread_name" - - - name="rank 4""#.to_string(),
                r#"M 2 12 "thread_name" - - - name="oss (12)""#.to_string(),
                format!(r#"X 1 4 "read" "request" 100 300 tid={tid},bytes=4096"#),
                format!(r#"X 2 12 "oss read" "device" 150 250 tid={tid}"#),
            ]
        );
    }

    #[test]
    fn chrome_export_of_empty_trace_has_no_events() {
        let v = serde_json::parse(chrome_trace(&[]).trim()).unwrap();
        let Some(serde_json::Value::Seq(events)) = v.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        assert!(events.is_empty());
    }
}
