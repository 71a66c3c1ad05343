//! Wire-vs-file equivalence: a log replayed over the network — across
//! multiple concurrent TCP connections, with chunk boundaries splitting
//! CLF lines mid-record, or as HTTP POST batches — must produce a
//! [`StreamSummary`] **bit-identical** to draining the same log from a
//! file, including across a kill-and-resume of the analyzer process.
//!
//! Bit-identity is achievable (and therefore demanded) because the
//! workload's timestamps are strictly increasing: the watermark merge's
//! (time, source, seq) order then has a unique answer, so the engine
//! sees exactly the file's record sequence regardless of how the wire
//! delivered it. (Real logs with timestamp ties get the §9 tolerance
//! bands instead — tie order between sources is arbitrary, which
//! reorders float accumulation.)

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use webpuzzle_ingest::{bind, ConnConfig, HubConfig, IngestHub, NetSource};
use webpuzzle_stream::{
    Checkpoint, FaultSource, FaultSpec, SourcePosition, StreamAnalyzer, StreamConfig,
    StreamSummary, Supervisor, SupervisorConfig, WindowConfig,
};
use webpuzzle_weblog::clf::{format_line, WVU_BASE_EPOCH};
use webpuzzle_weblog::{LogRecord, Method};

/// Engines here share the process-global metrics registry and event
/// ring; serialize tests so counters don't interleave.
static GLOBALS: Mutex<()> = Mutex::new(());

fn small_config() -> StreamConfig {
    StreamConfig {
        session_threshold: 100.0,
        request_window: WindowConfig {
            window_len: 600.0,
            fine_bin_width: None,
            min_poisson_arrivals: 5,
            ..WindowConfig::default()
        },
        session_window: WindowConfig {
            window_len: 600.0,
            fine_bin_width: None,
            min_poisson_arrivals: 5,
            ..WindowConfig::default()
        },
        ..StreamConfig::default()
    }
}

/// Deterministic workload with strictly increasing *whole-second*
/// timestamps: bit identity needs tie-free merges, and CLF has
/// one-second resolution, so fractional timestamps would not survive
/// the format/parse round-trip the wire path performs. Several
/// clients, a TTL-eviction burst after a 200 s dead gap, varied byte
/// sizes for the tails.
fn workload() -> Vec<LogRecord> {
    let mut out = Vec::with_capacity(4_000);
    let mut t = 0.0;
    for i in 0..4_000u64 {
        if i == 2_000 {
            t += 200.0;
        }
        t += 1.0;
        let client = (i * 37 % 97) as u32;
        let bytes = 200 + (i * i) % 9_000;
        out.push(LogRecord::new(t, client, Method::Get, client, 200, bytes));
    }
    out
}

fn log_lines(records: &[LogRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            let mut line = format_line(r, WVU_BASE_EPOCH);
            line.push('\n');
            line
        })
        .collect()
}

/// The reference: every record pushed straight into the engine.
fn file_summary(records: &[LogRecord]) -> StreamSummary {
    let mut engine = StreamAnalyzer::new(small_config()).expect("engine");
    for rec in records {
        engine.push(rec).expect("push");
    }
    engine.finish().expect("finish")
}

fn conn_config() -> ConnConfig {
    ConnConfig {
        base_epoch: WVU_BASE_EPOCH,
        ..ConnConfig::default()
    }
}

/// Deal lines round-robin (a subsequence of a sorted log is sorted, so
/// every share is a valid watermark source) and send each share on its
/// own TCP connection in writes of `chunk` bytes — chunk boundaries
/// land mid-line, mid-field, anywhere.
fn send_shares(addr: std::net::SocketAddr, lines: &[String], chunks: &[usize]) {
    std::thread::scope(|scope| {
        for (conn, &chunk) in chunks.iter().enumerate() {
            let share: Vec<u8> = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| i % chunks.len() == conn)
                .flat_map(|(_, l)| l.as_bytes().iter().copied())
                .collect();
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                for piece in share.chunks(chunk) {
                    stream.write_all(piece).expect("send");
                }
                stream
                    .shutdown(std::net::Shutdown::Write)
                    .expect("half-close");
                let mut sink = [0u8; 64];
                while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
            });
        }
    });
}

/// Drain the hub through the engine on the calling thread.
fn wire_summary(hub: &Arc<IngestHub>) -> StreamSummary {
    let mut engine = StreamAnalyzer::new(small_config()).expect("engine");
    let mut source = NetSource::new(Arc::clone(hub));
    use webpuzzle_stream::Source;
    while let Some(item) = source.next_item() {
        engine.push(&item.expect("no errors")).expect("push");
    }
    engine.finish().expect("finish")
}

#[test]
fn multi_connection_chunked_replay_is_bit_identical_to_file_drain() {
    let _guard = GLOBALS.lock().unwrap();
    let records = workload();
    let expected = file_summary(&records);
    let lines = log_lines(&records);

    let hub = IngestHub::new(HubConfig {
        expected_sources: Some(3),
        stall_grace: Some(Duration::from_secs(30)),
        ..HubConfig::default()
    });
    let listener = bind("127.0.0.1:0", Arc::clone(&hub), conn_config(), 8).expect("bind");
    let addr = listener.local_addr();
    // Three connections, three co-prime chunk sizes: lines split
    // mid-record at different offsets on every connection.
    let sender = std::thread::spawn({
        let lines = lines.clone();
        move || send_shares(addr, &lines, &[7, 64, 997])
    });
    let summary = wire_summary(&hub);
    sender.join().unwrap();
    listener.shutdown();

    assert_eq!(summary, expected, "wire replay must equal the file drain");
    let stats = hub.stats();
    assert_eq!(stats.sources_seen, 3);
    assert_eq!(stats.lines_received, records.len() as u64);
    assert_eq!(stats.admitted, records.len() as u64);
    assert_eq!(stats.late_dropped, 0);
    assert_eq!(stats.stall_late_dropped, 0);
    assert_eq!(stats.torn_lines, 0);
    assert_eq!(stats.oversized_lines, 0);
    let wire_bytes: u64 = lines.iter().map(|l| l.len() as u64).sum();
    assert_eq!(stats.bytes_received, wire_bytes);
}

#[test]
fn http_batches_equal_file_drain() {
    let _guard = GLOBALS.lock().unwrap();
    let records = workload();
    let expected = file_summary(&records);
    let lines = log_lines(&records);

    let batch_lines = 700;
    let batches: Vec<&[String]> = lines.chunks(batch_lines).collect();
    let hub = IngestHub::new(HubConfig {
        // Each POST registers as its own source.
        expected_sources: Some(batches.len() as u64),
        stall_grace: Some(Duration::from_secs(30)),
        ..HubConfig::default()
    });
    let listener = bind("127.0.0.1:0", Arc::clone(&hub), conn_config(), 8).expect("bind");
    let addr = listener.local_addr();

    let sender = std::thread::spawn({
        let batches: Vec<Vec<String>> = batches.iter().map(|b| b.to_vec()).collect();
        move || {
            for batch in &batches {
                let body: Vec<u8> = batch.iter().flat_map(|l| l.bytes()).collect();
                let mut stream = TcpStream::connect(addr).expect("connect");
                write!(
                    stream,
                    "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
                     Connection: close\r\n\r\n",
                    body.len()
                )
                .expect("head");
                stream.write_all(&body).expect("body");
                let mut response = String::new();
                let mut reader = BufReader::new(stream);
                reader.read_line(&mut response).expect("status");
                assert!(response.contains("200"), "batch refused: {response}");
                let mut rest = String::new();
                let _ = reader.read_to_string(&mut rest);
                assert!(
                    rest.contains(&format!("\"accepted\":{}", batch.len())),
                    "unexpected accounting: {rest}"
                );
            }
        }
    });
    let summary = wire_summary(&hub);
    sender.join().unwrap();
    listener.shutdown();

    assert_eq!(summary, expected, "HTTP batches must equal the file drain");
    let stats = hub.stats();
    assert_eq!(stats.sources_seen, batches.len() as u64);
    assert_eq!(stats.admitted, records.len() as u64);
    assert_eq!(stats.skipped_malformed, 0);
}

/// Kill-and-resume over the wire: the first incarnation crashes with
/// zero restores allowed (a process kill), leaving a checkpoint behind;
/// the second incarnation resumes from it while the sender simply
/// replays the whole log from the start. The checkpoint's sessionizer
/// watermark becomes the hub's admit floor, so every already-processed
/// record is dropped as a duplicate and the final summary is
/// bit-identical to the uninterrupted file drain.
#[test]
fn kill_and_resume_over_the_wire_is_bit_identical() {
    let _guard = GLOBALS.lock().unwrap();
    let records = workload();
    let expected = file_summary(&records);
    let lines = log_lines(&records);
    let dir = std::env::temp_dir().join("webpuzzle-ingest-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ck_path = dir.join("wire-resume.bin");
    let _ = std::fs::remove_file(&ck_path);

    // First incarnation: dies at record 1500, checkpointing every 400.
    {
        let hub = IngestHub::new(HubConfig {
            expected_sources: Some(2),
            stall_grace: Some(Duration::from_secs(30)),
            ..HubConfig::default()
        });
        let listener = bind("127.0.0.1:0", Arc::clone(&hub), conn_config(), 8).expect("bind");
        let addr = listener.local_addr();
        let sender = std::thread::spawn({
            let lines = lines.clone();
            move || send_shares(addr, &lines, &[512, 512])
        });
        let factory_hub = Arc::clone(&hub);
        let factory = move |pos: &SourcePosition| {
            let mut src = FaultSource::new(
                NetSource::new(Arc::clone(&factory_hub)),
                FaultSpec {
                    crash_at: Some(1_500),
                    ..FaultSpec::default()
                },
            );
            src.set_index(pos.parsed);
            Ok(src)
        };
        let died = Supervisor::new(
            small_config(),
            SupervisorConfig {
                backoff_base_ms: 0,
                checkpoint_path: Some(ck_path.clone()),
                checkpoint_every_records: 400,
                max_restores: 0,
                ..SupervisorConfig::default()
            },
            factory,
        )
        .run()
        .expect_err("first incarnation must die");
        assert!(died.to_string().contains("injected crash"));
        // Unblock any sender still waiting on backpressure, then drain.
        hub.finish();
        sender.join().unwrap();
        listener.shutdown();
    }

    // Second incarnation: resume from the snapshot; the sender replays
    // the whole log from the start.
    let ck = Checkpoint::load(&ck_path).expect("checkpoint survives");
    assert_eq!(ck.engine.records, 1_200, "last 400-multiple before 1500");
    let admit_floor = ck.engine.sessionizer.watermark;
    let hub = IngestHub::new(HubConfig {
        admit_floor,
        expected_sources: Some(2),
        stall_grace: Some(Duration::from_secs(30)),
        ..HubConfig::default()
    });
    hub.set_baseline(ck.source);
    let listener = bind("127.0.0.1:0", Arc::clone(&hub), conn_config(), 8).expect("bind");
    let addr = listener.local_addr();
    let sender = std::thread::spawn({
        let lines = lines.clone();
        move || send_shares(addr, &lines, &[239, 1024])
    });
    let factory_hub = Arc::clone(&hub);
    let factory = move |_pos: &SourcePosition| Ok(NetSource::new(Arc::clone(&factory_hub)));
    let report = Supervisor::new(
        small_config(),
        SupervisorConfig {
            backoff_base_ms: 0,
            checkpoint_path: Some(ck_path.clone()),
            checkpoint_every_records: 400,
            ..SupervisorConfig::default()
        },
        factory,
    )
    .with_resume(ck)
    .run()
    .expect("resumed run");
    sender.join().unwrap();
    listener.shutdown();

    assert_eq!(report.resumed_from_records, Some(1_200));
    assert_eq!(
        report.summary, expected,
        "kill-and-resume over the wire must reproduce the file drain"
    );
    // Replay idempotency: exactly the already-processed prefix was
    // dropped as duplicates (strictly increasing timestamps make the
    // admit floor exact).
    let stats = hub.stats();
    assert_eq!(stats.duplicate_dropped, 1_200);
    assert_eq!(stats.admitted, records.len() as u64 - 1_200);
    let _ = std::fs::remove_file(&ck_path);
}
