//! Command-line contract: usage errors exit 2 on every binary, `genlog`
//! output failures exit 1, run reports say whether they are partial,
//! and the wire path (`stream-serve`) reproduces the file path
//! (`stream-analyze`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serde::Value;
use webpuzzle_bench::run::DEFAULT_BASE_EPOCH;
use webpuzzle_weblog::clf::format_line;
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

const ANALYZE: &str = env!("CARGO_BIN_EXE_stream-analyze");
const SERVE: &str = env!("CARGO_BIN_EXE_stream-serve");
const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const GENLOG: &str = env!("CARGO_BIN_EXE_genlog");
const REPLAY: &str = env!("CARGO_BIN_EXE_replay");
const PAPER_CHECK: &str = env!("CARGO_BIN_EXE_paper-check");
const BENCH_REPORT: &str = env!("CARGO_BIN_EXE_bench-report");

/// A per-test scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("webpuzzle-cli-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The first day of a CSEE week: a few thousand CLF lines. One day
/// keeps the run short, since window closes cost by stream time, not by
/// record count. Returns the text and its line count.
fn fixture() -> (String, usize) {
    let records = WorkloadGenerator::new(ServerProfile::csee().with_scale(0.05))
        .seed(7)
        .generate()
        .expect("built-in profile generates");
    let day: Vec<String> = records
        .iter()
        .take_while(|r| r.timestamp < 86_400.0)
        .map(|r| format_line(r, DEFAULT_BASE_EPOCH) + "\n")
        .collect();
    (day.concat(), day.len())
}

fn write_fixture(scratch: &Scratch) -> (PathBuf, usize) {
    let (text, lines) = fixture();
    let path = scratch.path("fixture.log");
    std::fs::write(&path, text).expect("write fixture");
    (path, lines)
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn binary")
}

fn config(report: &Path) -> Value {
    let text = std::fs::read_to_string(report).expect("read run report");
    let report = serde_json::parse_value_str(&text).expect("run report is JSON");
    report.get("config").expect("report has config").clone()
}

/// Equal, with floats inside a 1e-9 relative band (JSON rendering).
fn assert_close(a: &Value, b: &Value, path: &str) {
    match (a, b) {
        (Value::Object(x), Value::Object(y)) => {
            let keys = |o: &[(String, Value)]| o.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            assert_eq!(keys(x), keys(y), "{path}: keys differ");
            for ((k, u), (_, v)) in x.iter().zip(y) {
                assert_close(u, v, &format!("{path}.{k}"));
            }
        }
        (Value::Array(x), Value::Array(y)) => {
            assert_eq!(x.len(), y.len(), "{path}: lengths differ");
            for (i, (u, v)) in x.iter().zip(y).enumerate() {
                assert_close(u, v, &format!("{path}[{i}]"));
            }
        }
        (Value::Num(_), Value::Num(_)) => {
            let (u, v) = (a.as_f64().unwrap(), b.as_f64().unwrap());
            assert!(
                u == v || (u - v).abs() <= 1e-9 * u.abs().max(v.abs()),
                "{path}: {u} != {v}"
            );
        }
        _ => assert_eq!(a, b, "{path}"),
    }
}

#[test]
fn usage_errors_exit_2_on_every_binary() {
    // Per binary: a flag missing its value, a value that does not
    // parse, and a flag the binary does not take; for the stream
    // binaries also window lengths that parse but cannot be used.
    let cases: [(&str, &[&[&str]]); 7] = [
        (
            REPRO,
            &[
                &["--scale"],
                &["--scale", "abc", "table1"],
                &["--no-such-flag", "table1"],
            ],
        ),
        (
            GENLOG,
            &[&["--seed"], &["--seed", "x"], &["--no-such-flag"]],
        ),
        (
            REPLAY,
            &[
                &["--connections"],
                &["--connections", "x"],
                &["--no-such-flag"],
            ],
        ),
        (
            PAPER_CHECK,
            &[
                &["--targets"],
                &["--targets", "no-such-targets.toml"],
                &["--no-such-flag"],
            ],
        ),
        (
            BENCH_REPORT,
            &[
                &["--threshold"],
                &["--threshold", "-1"],
                &["--no-such-flag"],
            ],
        ),
        (
            ANALYZE,
            &[
                &["--window"],
                &["--window", "abc"],
                &["--no-such-flag"],
                // Parsable, but no usable window.
                &["--window", "0"],
                &["--window", "1e-300"],
                &["--window", "NaN"],
                &["--window", "0.5"],
            ],
        ),
        (
            SERVE,
            &[
                &["--window"],
                &["--window", "abc"],
                &["--no-such-flag"],
                &["--window", "0"],
                &["--window", "1e-300"],
                &["--window", "NaN"],
                &["--window", "0.5"],
            ],
        ),
    ];
    for (bin, cases) in cases {
        for args in cases {
            let out = run(bin, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
        }
    }
    let out = run(SERVE, &["--seasonal-period", "x"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim(),
        "stream-serve: bad --seasonal-period x (windows; 0 disables)"
    );
}

#[test]
fn genlog_output_failures_exit_1_with_one_line() {
    let scratch = Scratch::new("genlog-out");
    let missing = scratch.path("missing-dir").join("x.log");
    let out = run(
        GENLOG,
        &[
            "--scale",
            "0.01",
            "--quiet",
            "--out",
            missing.to_str().unwrap(),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("genlog: cannot create "), "{stderr}");

    // A reader that goes away (`genlog | head -1`) is a write failure,
    // not a crash.
    let mut child = Command::new(GENLOG)
        .args(["--scale", "0.05", "--quiet"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn genlog");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for genlog");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("genlog: cannot write "), "{stderr}");
}

#[test]
fn final_report_is_not_partial_and_snapshots_are() {
    let scratch = Scratch::new("partial");
    let (log, lines) = write_fixture(&scratch);
    let log = log.to_str().unwrap();

    let report = scratch.path("final.json");
    let out = run(
        ANALYZE,
        &[
            log,
            "--quiet",
            "--json",
            "--report",
            report.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(0));
    let cfg = config(&report);
    assert_eq!(cfg.get("partial"), Some(&Value::Bool(false)));
    assert_eq!(
        cfg.get("records").and_then(Value::as_u64),
        Some(lines as u64)
    );

    // Without --json the report file holds the last snapshot.
    let snapshot = scratch.path("snapshot.json");
    let out = run(
        ANALYZE,
        &[
            log,
            "--quiet",
            "--snapshot-every",
            "1000",
            "--report",
            snapshot.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(0));
    let cfg = config(&snapshot);
    assert_eq!(cfg.get("partial"), Some(&Value::Bool(true)));
    let records = cfg.get("records").and_then(Value::as_u64).unwrap();
    assert_eq!(records, (lines as u64 / 1000) * 1000);
}

/// Wait for `child` to exit, on a helper thread; kill it and panic with
/// `what` if it is still running at `deadline`.
fn wait_until(mut child: Child, deadline: Instant, what: &str) -> ExitStatus {
    let pid = child.id();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(child.wait());
    });
    match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
        Ok(status) => status.expect("wait for child"),
        Err(_) => {
            // The helper thread owns the child, so kill it by pid.
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            panic!("{what}");
        }
    }
}

#[test]
fn wire_run_matches_file_run() {
    let scratch = Scratch::new("wire");
    let (log, lines) = write_fixture(&scratch);
    let file_report = scratch.path("file.json");
    let out = run(
        ANALYZE,
        &[
            log.to_str().unwrap(),
            "--quiet",
            "--json",
            "--report",
            file_report.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(0));

    let wire_report = scratch.path("wire.json");
    let mut serve = Command::new(SERVE)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--quiet",
            "--json",
            "--report",
            wire_report.to_str().unwrap(),
            "--exit-after-sources",
            "1",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn stream-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    // The listen address is announced on stderr even under --quiet; the
    // reader keeps draining stderr so the pipe can never fill.
    let stderr = serve.stderr.take().expect("piped stderr");
    let (addr_tx, addr_rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if let Some(rest) = line.strip_prefix("stream-serve: ingest listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                let _ = addr_tx.send(addr.to_string());
            }
        }
    });
    let Ok(addr) = addr_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) else {
        let _ = serve.kill();
        panic!("stream-serve never announced its address");
    };
    let mut conn = TcpStream::connect(&addr).expect("connect to stream-serve");
    conn.write_all(&std::fs::read(&log).expect("read fixture"))
        .expect("send fixture");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = Vec::new();
    let _ = conn.read_to_end(&mut rest);
    let status = wait_until(
        serve,
        deadline,
        "stream-serve did not exit after its one source closed",
    );
    assert_eq!(status.code(), Some(0));

    let file = config(&file_report);
    let wire = config(&wire_report);
    assert_close(
        file.get("summary").expect("file summary"),
        wire.get("summary").expect("wire summary"),
        "summary",
    );
    let admitted = wire.get("ingest").and_then(|i| i.get("admitted"));
    assert_eq!(admitted.and_then(Value::as_u64), Some(lines as u64));
    assert_eq!(wire.get("partial"), Some(&Value::Bool(false)));
}
