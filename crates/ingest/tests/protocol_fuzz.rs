//! Hostile-input smoke tests for the ingest service: torn writes,
//! oversized lines, malformed records, abrupt disconnects, and garbage
//! HTTP must each be *counted* — never dropped silently, never a
//! panic, and never fatal to the records that did arrive intact.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use webpuzzle_ingest::{bind, ConnConfig, HubConfig, IngestHub};
use webpuzzle_weblog::clf::{format_line, WVU_BASE_EPOCH};
use webpuzzle_weblog::{LogRecord, Method};

/// The hubs here share the process-wide metrics registry, where each
/// source registers and retires its gauges by connection name;
/// serialize the tests.
static GLOBALS: Mutex<()> = Mutex::new(());

fn line(t: f64, client: u32) -> String {
    let mut l = format_line(
        &LogRecord::new(t, client, Method::Get, 1, 200, 500),
        WVU_BASE_EPOCH,
    );
    l.push('\n');
    l
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

fn drain(mut stream: TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 256];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

#[test]
fn protocol_faults_are_counted_never_fatal() {
    let _guard = GLOBALS.lock().unwrap();
    let hub = IngestHub::new(HubConfig {
        expected_sources: Some(3),
        stall_grace: Some(Duration::from_secs(30)),
        ..HubConfig::default()
    });
    let cfg = ConnConfig {
        base_epoch: WVU_BASE_EPOCH,
        max_line_bytes: 512,
        ..ConnConfig::default()
    };
    let listener = bind("127.0.0.1:0", Arc::clone(&hub), cfg, 8).expect("bind");
    let addr = listener.local_addr();

    // Probes that never register a source — they must not count toward
    // expected_sources or disturb the stream.
    // 1. Garbage HTTP path: 404, connection served and closed.
    {
        let mut stream = connect(addr);
        write!(
            stream,
            "POST /nowhere HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        BufReader::new(&stream).read_line(&mut response).unwrap();
        assert!(response.contains("404"), "got: {response}");
        drain(stream);
    }
    // 2. Health probe.
    {
        let mut stream = connect(addr);
        write!(stream, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        BufReader::new(&stream).read_line(&mut response).unwrap();
        assert!(response.contains("200"), "got: {response}");
        drain(stream);
    }
    // 3. Connect-and-vanish: zero bytes, immediate close.
    drop(connect(addr));
    // 4. Malformed HTTP request line.
    {
        let mut stream = connect(addr);
        stream.write_all(b"POST \r\n\r\n").unwrap();
        let mut response = String::new();
        let _ = BufReader::new(&stream).read_line(&mut response);
        assert!(response.contains("400"), "got: {response}");
        drain(stream);
    }

    // The three real sources.
    // Source A: valid lines around malformed garbage and one line far
    // over the 512-byte cap, clean close.
    let a = std::thread::spawn(move || {
        let mut stream = connect(addr);
        stream.write_all(line(10.0, 1).as_bytes()).unwrap();
        for _ in 0..5 {
            stream.write_all(b"definitely not a log line\n").unwrap();
        }
        let mut oversized = vec![b'x'; 2_000];
        oversized.push(b'\n');
        stream.write_all(&oversized).unwrap();
        stream.write_all(line(40.0, 1).as_bytes()).unwrap();
        drain(stream);
    });
    // Source B: a valid line, then a torn write — half a record, no
    // newline, abrupt drop.
    let b = std::thread::spawn(move || {
        let mut stream = connect(addr);
        stream.write_all(line(20.0, 2).as_bytes()).unwrap();
        let full = line(50.0, 2);
        stream
            .write_all(&full.as_bytes()[..full.len() / 2])
            .unwrap();
        stream.flush().unwrap();
        // No shutdown courtesy: just drop the socket.
    });
    // Source C: valid lines only, dropped without half-close.
    let c = std::thread::spawn(move || {
        let mut stream = connect(addr);
        stream.write_all(line(30.0, 3).as_bytes()).unwrap();
        stream.write_all(line(60.0, 3).as_bytes()).unwrap();
        stream.flush().unwrap();
    });

    let mut times = Vec::new();
    while let Some(rec) = hub.pop_blocking() {
        times.push(rec.timestamp);
    }
    a.join().unwrap();
    b.join().unwrap();
    c.join().unwrap();
    listener.shutdown();

    // Every intact record arrived, in merged time order; B's torn
    // half-record at t=50 is accounted, not delivered.
    assert_eq!(times, vec![10.0, 20.0, 30.0, 40.0, 60.0]);
    let stats = hub.stats();
    assert_eq!(stats.sources_seen, 3, "probes must not register sources");
    assert_eq!(stats.admitted, 5);
    assert_eq!(stats.skipped_malformed, 5, "5 garbage lines counted");
    assert_eq!(stats.oversized_lines, 1, "over-cap line counted");
    assert_eq!(stats.torn_lines, 1, "torn final line counted");
    assert_eq!(stats.late_dropped, 0);
    assert_eq!(stats.stall_late_dropped, 0);
}

/// A flood of random garbage bytes on the line protocol must terminate
/// without panic, counting every line as malformed or oversized.
#[test]
fn random_garbage_never_panics() {
    let _guard = GLOBALS.lock().unwrap();
    let hub = IngestHub::new(HubConfig {
        expected_sources: Some(1),
        stall_grace: Some(Duration::from_secs(30)),
        ..HubConfig::default()
    });
    let cfg = ConnConfig {
        base_epoch: WVU_BASE_EPOCH,
        max_line_bytes: 256,
        ..ConnConfig::default()
    };
    let listener = bind("127.0.0.1:0", Arc::clone(&hub), cfg, 4).expect("bind");
    let addr = listener.local_addr();

    let sender = std::thread::spawn(move || {
        let mut stream = connect(addr);
        // Deterministic LCG garbage: non-UTF8 bytes, scattered
        // newlines, runs long enough to trip the 256-byte cap. Avoid a
        // leading HTTP verb by starting with a high byte.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut garbage = vec![0xffu8];
        for _ in 0..64 * 1024 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let byte = (state >> 33) as u8;
            garbage.push(if byte == b'\n' && state & 0x7 != 0 {
                b'.'
            } else {
                byte
            });
        }
        garbage.push(b'\n');
        for piece in garbage.chunks(1_313) {
            stream.write_all(piece).unwrap();
        }
        drain(stream);
    });

    let mut popped = 0u64;
    while hub.pop_blocking().is_some() {
        popped += 1;
    }
    sender.join().unwrap();
    listener.shutdown();

    let stats = hub.stats();
    // Whatever the garbage contained, every line is accounted for:
    // parsed (vanishingly unlikely), malformed, oversized, or torn.
    assert_eq!(
        stats.lines_received,
        popped + stats.skipped_malformed + stats.oversized_lines + stats.torn_lines,
        "every garbage line must be accounted for"
    );
    assert!(stats.lines_received > 0);
    assert_eq!(stats.sources_seen, 1);
}
