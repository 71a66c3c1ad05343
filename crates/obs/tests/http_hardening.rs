//! Hardening tests for the telemetry endpoint: a half-open (slowloris
//! style) client must cost the handler thread at most one read timeout,
//! oversized requests must be rejected with a proper status, and normal
//! scrapes must keep working throughout.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use webpuzzle_obs as obs;
use webpuzzle_obs::http::HttpLimits;

fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw.lines().next().unwrap_or_default().to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn half_open_connection_cannot_pin_the_server() {
    let limits = HttpLimits {
        read_timeout: Some(Duration::from_millis(250)),
        write_timeout: Some(Duration::from_millis(250)),
        max_head_bytes: 1024,
        ..HttpLimits::default()
    };
    let server = obs::serve(
        "127.0.0.1:0",
        obs::ReportContext::default(),
        obs::Telemetry::default(),
        limits,
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // A half-open client: sends a partial request line, then goes quiet
    // while keeping the socket open.
    let mut stuck = TcpStream::connect(addr).expect("connect half-open client");
    stuck.write_all(b"GET /metr").expect("partial write");

    // A well-behaved scrape right behind it must still be answered; the
    // single handler thread may be pinned for at most one read timeout.
    let started = Instant::now();
    let (status, body) = get(addr, "/healthz");
    let waited = started.elapsed();
    assert!(status.contains("200"), "healthz under slowloris: {status}");
    assert_eq!(body, "ok\n");
    assert!(
        waited < Duration::from_secs(2),
        "scrape delayed {waited:?}; read timeout did not bound the half-open peer"
    );

    // The half-open socket was dropped without a response.
    stuck
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut out = Vec::new();
    let got = stuck.read_to_end(&mut out).unwrap_or(0);
    assert_eq!(got, 0, "half-open peer received bytes: {out:?}");

    // Oversized request heads get a 431, not an unbounded buffer. Send
    // just past the cap (and no head terminator) so the server consumes
    // everything we wrote before rejecting — over-stuffing further would
    // risk an RST racing the response off the wire.
    let mut big = TcpStream::connect(addr).expect("connect oversized client");
    big.write_all(b"GET / HTTP/1.1\r\n").unwrap();
    let filler = vec![b'a'; 1200];
    big.write_all(&filler).unwrap();
    let mut raw = String::new();
    big.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    big.read_to_string(&mut raw).expect("read 431 response");
    assert!(raw.starts_with("HTTP/1.1 431"), "{raw}");

    // Malformed requests get a 400.
    let mut bad = TcpStream::connect(addr).expect("connect malformed client");
    bad.write_all(b"NOTARGET\r\n\r\n").unwrap();
    let mut raw = String::new();
    bad.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    bad.read_to_string(&mut raw).expect("read 400 response");
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

    // And the server is still healthy after all of that.
    let (status, _) = get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    server.shutdown();
}
