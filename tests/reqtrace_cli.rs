//! `pioeval requests` on a malformed trace file: each defect in a
//! request line must end the command with a non-zero exit and a message
//! naming the line and the field, never a panic or a silently truncated
//! value.

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pioeval-reqtrace-test-{}-{name}",
        std::process::id()
    ))
}

fn pioeval(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pioeval"))
        .args(args)
        .output()
        .expect("failed to spawn pioeval")
}

#[test]
fn requests_reports_malformed_lines_without_panicking() {
    let trace = scratch("trace.jsonl");
    let trace_s = trace.to_str().unwrap();
    let run = pioeval(&[
        "run",
        "--workload",
        "ior",
        "--ranks",
        "2",
        "--quiet",
        "--request-trace",
        trace_s,
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let ok = pioeval(&["requests", trace_s, "--json"]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // Each edit hits the first request line, line 2 of the file.
    let cases = [
        (
            "\"rank\":0,",
            "\"rank\":4294967296,",
            "line 2: field \"rank\"",
        ),
        (
            "\"file\":100,",
            "\"file\":4294967296,",
            "line 2: field \"file\"",
        ),
        (
            "\"entity\":4294967295,",
            "\"entity\":4294967296,",
            "line 2: field \"entity\"",
        ),
        (
            "\"label\":\"fabric\"",
            "\"label\":\"fabrik\"",
            "line 2: unknown span label \"fabrik\"",
        ),
    ];
    for (i, (from, to, want)) in cases.into_iter().enumerate() {
        assert!(text.contains(from), "{from} not in the trace");
        let bad = scratch(&format!("bad{i}.jsonl"));
        std::fs::write(&bad, text.replacen(from, to, 1)).unwrap();
        let out = pioeval(&["requests", bad.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{want}: {stderr}");
        assert!(stderr.contains(want), "{want} not in {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        let _ = std::fs::remove_file(bad);
    }
    let _ = std::fs::remove_file(trace);
}
