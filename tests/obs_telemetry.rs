//! End-to-end telemetry checks: the CLI's `--metrics json` document and
//! `--trace-out` Chrome trace must be machine-parseable and carry the
//! headline figures (wall-clock, events processed, events/sec, queue
//! high-water mark) plus the nested pipeline → engine → entity spans.

use serde_json::Value;
use std::process::Command;

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        Value::I64(n) => *n as u64,
        Value::F64(f) => *f as u64,
        other => panic!("expected number, got {other:?}"),
    }
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(f) => *f,
        other => panic!("expected number, got {other:?}"),
    }
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

fn as_seq(v: &Value) -> &[Value] {
    match v {
        Value::Seq(items) => items,
        other => panic!("expected array, got {other:?}"),
    }
}

#[test]
fn metrics_json_mode_emits_parseable_document_with_headline_keys() {
    let trace_path = std::env::temp_dir().join(format!(
        "pioeval-obs-test-{}-trace.json",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_pioeval"))
        .args([
            "run",
            "--workload",
            "ior",
            "--ranks",
            "4",
            "--metrics",
            "json",
            "--trace-out",
        ])
        .arg(&trace_path)
        .output()
        .expect("failed to spawn pioeval");
    assert!(
        output.status.success(),
        "pioeval run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Machine mode: stdout is the JSON document alone; the banner, the
    // report, and the always-on summary line all go to stderr.
    let stdout = String::from_utf8(output.stdout).expect("stdout not UTF-8");
    let doc = serde_json::parse(&stdout).expect("stdout is not valid JSON");
    assert_eq!(as_str(doc.get("schema").expect("schema")), "pioeval-obs/1");
    assert!(as_f64(doc.get("wall_ms").expect("wall_ms")) > 0.0);
    assert!(as_u64(doc.get("events_processed").expect("events_processed")) > 0);
    assert!(as_f64(doc.get("events_per_sec").expect("events_per_sec")) > 0.0);
    assert!(as_u64(doc.get("queue_hwm").expect("queue_hwm")) > 0);
    let counters = doc.get("counters").expect("counters");
    assert!(as_u64(counters.get("des.events_processed").unwrap()) > 0);
    assert_eq!(as_u64(counters.get("iostack.ranks_launched").unwrap()), 4);

    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("telemetry:"),
        "summary line missing from stderr: {stderr}"
    );

    // The Chrome trace parses and carries the pipeline → engine → entity
    // span layers plus thread-name metadata.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace file not written");
    std::fs::remove_file(&trace_path).ok();
    let trace = serde_json::parse(&trace_text).expect("trace is not valid JSON");
    let events = as_seq(trace.get("traceEvents").expect("traceEvents"));
    assert!(!events.is_empty());
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| as_str(e.get("ph").unwrap()) == "X")
        .map(|e| as_str(e.get("name").unwrap()))
        .collect();
    for required in [
        "pioeval.run",
        "core.measure",
        "core.simulate",
        "pfs.cluster.run",
        "des.run.seq",
    ] {
        assert!(
            span_names.contains(&required),
            "span {required} missing from trace: {span_names:?}"
        );
    }
    assert!(
        events.iter().any(|e| as_str(e.get("ph").unwrap()) == "M"),
        "thread-name metadata missing"
    );
}

#[test]
fn run_without_metrics_flag_still_prints_summary_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_pioeval"))
        .args(["run", "--workload", "ior", "--ranks", "2"])
        .output()
        .expect("failed to spawn pioeval");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("telemetry:") && stdout.contains("events/s"),
        "always-on summary line missing: {stdout}"
    );
}

#[test]
fn metrics_human_mode_renders_table() {
    let output = Command::new(env!("CARGO_BIN_EXE_pioeval"))
        .args([
            "run",
            "--workload",
            "ior",
            "--ranks",
            "2",
            "--metrics",
            "human",
        ])
        .output()
        .expect("failed to spawn pioeval");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("des.events_processed"),
        "human metrics table missing counters: {stdout}"
    );
    assert_eq!(
        stdout.lines().filter(|l| l.contains("events/s")).count(),
        1,
        "headline printed more than once: {stdout}"
    );
}
