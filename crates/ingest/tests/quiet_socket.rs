//! A line-protocol connection hands its parsed records to the hub
//! whenever no complete line is left in what it has read, not only when
//! a batch fills or the connection closes: a trickling sender's records
//! reach the engine while its socket stays open, and a line that
//! arrives in pieces still parses exactly once.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use webpuzzle_ingest::{bind, ConnConfig, HubConfig, IngestHub, IngestListener};
use webpuzzle_stream::SourcePosition;
use webpuzzle_weblog::clf::{format_line, WVU_BASE_EPOCH};
use webpuzzle_weblog::{LogRecord, Method};

/// The hub counters are process-wide; serialize the tests.
static GLOBALS: Mutex<()> = Mutex::new(());

/// How long a test may wait for records before the watchdog ends the
/// merged stream; far beyond any scheduling delay, so only a connection
/// that holds its records runs into it.
const WATCHDOG: Duration = Duration::from_secs(60);

fn line(i: u32) -> String {
    let rec = LogRecord::new(f64::from(i), i, Method::Get, i, 200, 100 + u64::from(i));
    let mut line = format_line(&rec, WVU_BASE_EPOCH);
    line.push('\n');
    line
}

fn serve() -> (Arc<IngestHub>, IngestListener, SocketAddr) {
    let hub = IngestHub::new(HubConfig {
        expected_sources: Some(1),
        ..HubConfig::default()
    });
    let cfg = ConnConfig {
        base_epoch: WVU_BASE_EPOCH,
        ..ConnConfig::default()
    };
    let listener = bind("127.0.0.1:0", Arc::clone(&hub), cfg, 2).expect("bind");
    let addr = listener.local_addr();
    (hub, listener, addr)
}

/// Run `body`, calling `hub.finish()` if it has not returned within
/// [`WATCHDOG`]: a hub that never sees the records then fails the
/// body's assertion instead of hanging the test.
fn watched<T>(hub: &IngestHub, body: impl FnOnce() -> T) -> T {
    let (done, wait) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            if wait.recv_timeout(WATCHDOG) == Err(RecvTimeoutError::Timeout) {
                hub.finish();
            }
        });
        let out = body();
        drop(done);
        out
    })
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// Half-close and wait for the server to close its side.
fn close(mut stream: TcpStream) {
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut sink = [0u8; 64];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

#[test]
fn a_trickle_reaches_the_engine_while_its_connection_is_open() {
    let _guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let (hub, listener, addr) = serve();
    let mut stream = connect(addr);
    let lines: String = (1..=3).map(line).collect();
    stream.write_all(lines.as_bytes()).expect("send");

    // The socket stays open: nothing but the connection's own flush
    // can bring these records to the hub.
    let clients: Vec<Option<u32>> = watched(&hub, || {
        (0..3)
            .map(|_| hub.pop_blocking().map(|r| r.client))
            .collect()
    });
    assert_eq!(
        clients,
        [Some(1), Some(2), Some(3)],
        "the records must reach the hub while their connection is open"
    );

    close(stream);
    assert!(
        hub.pop_blocking().is_none(),
        "the stream ends with the source"
    );
    listener.shutdown();
    let stats = hub.stats();
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.stall_late_dropped, 0);
    assert_eq!(stats.lines_received, 3);
}

/// Send `pieces` over one connection, pausing between them, and return
/// the records, the hub's position and its torn-line count.
fn deliver(pieces: &[&[u8]]) -> (Vec<LogRecord>, SourcePosition, u64) {
    let (hub, listener, addr) = serve();
    let mut stream = connect(addr);
    for (i, piece) in pieces.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(100));
        }
        stream.write_all(piece).expect("send");
    }
    close(stream);
    let records: Vec<LogRecord> =
        watched(&hub, || std::iter::from_fn(|| hub.pop_blocking()).collect());
    listener.shutdown();
    (records, hub.position(), hub.stats().torn_lines)
}

#[test]
fn a_line_written_in_two_halves_parses_once() {
    let _guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let text = line(7);
    let bytes = text.as_bytes();
    let (whole, whole_pos, whole_torn) = deliver(&[bytes]);
    let (split, split_pos, split_torn) =
        deliver(&[&bytes[..bytes.len() / 2], &bytes[bytes.len() / 2..]]);

    assert_eq!(whole.len(), 1);
    assert_eq!(split, whole, "the halves must parse as the one line");
    assert_eq!((whole_torn, split_torn), (0, 0));
    assert_eq!(split_pos.byte_offset, bytes.len() as u64);
    assert_eq!(split_pos.line_no, 1);
    assert_eq!(
        (split_pos.byte_offset, split_pos.line_no, split_pos.parsed),
        (whole_pos.byte_offset, whole_pos.line_no, whole_pos.parsed)
    );
}
