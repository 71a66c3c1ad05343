//! Crash-safe checkpoints of the streaming engine.
//!
//! A checkpoint captures everything a killed `stream-analyze` process
//! needs to continue as if nothing happened: the engine's
//! [`EngineState`], the source position (byte offset plus parse
//! counters), the event-ring sequence, and the supervisor's recovery
//! bookkeeping. The on-disk format is a small custom binary codec, not
//! JSON: the engine's state includes `-inf` sentinels (watermarks,
//! eviction clocks) that JSON cannot encode, and restore must be
//! **bit-identical** — every `f64` travels via
//! [`f64::to_bits`]/[`f64::from_bits`], so the resumed run reproduces
//! the uninterrupted run's [`crate::StreamSummary`] exactly, not just
//! within tolerance.
//!
//! # Format
//!
//! ```text
//! magic   8 bytes  "WPZCKPT\0"
//! version u32 LE   bumped on any payload layout change
//! len     u64 LE   payload length in bytes
//! fnv     u64 LE   FNV-1a 64 of the payload
//! payload len bytes
//! ```
//!
//! [`save`] writes atomically: temp file in the target directory,
//! `sync_all`, rename over the target, best-effort directory fsync. A
//! crash mid-write leaves the previous checkpoint intact; a torn read
//! is caught by the length or checksum and refused with a clear error
//! rather than resumed from silently.
//!
//! Versioning policy: there is no cross-version migration. A
//! checkpoint is a *restart artifact*, not an archive — an unknown
//! version is refused ([`CheckpointError::UnsupportedVersion`]) and
//! the operator reruns from the start of the log (one-pass analysis is
//! cheap; resuming from a wrong layout would be silently wrong).

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::engine::{EngineState, StreamConfig};
use crate::observatory::{
    BaselineState, CusumState, EwmaState, ObservatoryConfig, ObservatoryState, PageHinkleyState,
};
use crate::observatory::{ChannelAlarms, DriftSummary};
use crate::sessionizer::SessionizerState;
use crate::window::{ArrivalsState, WindowConfig, WindowReport};
use webpuzzle_core::PoissonVerdict;
use webpuzzle_obs::diagnostics::{AgreementVerdict, WindowDiagnostics};
use webpuzzle_weblog::{MalformedBreakdown, Session};

/// File magic: identifies a webpuzzle checkpoint.
pub const MAGIC: [u8; 8] = *b"WPZCKPT\0";
/// Current payload layout version. Version 2 added the estimator
/// diagnostics state: the `diagnostics` config flag, the per-window fit
/// CIs in [`WindowReport`], and the engine's inter-arrival accumulator
/// plus accrued [`WindowDiagnostics`] rows. Version 3 added the
/// overload-governor state: the sessionizer's TTL scale and
/// early-eviction count, the engine's degradation mode / sampling /
/// hard-shed counters and forced-checkpoint flag, and the process
/// governor's pressure-state code. Version 4 dropped the engine's
/// transfer-size histogram: the registry's `stream/response_bytes`
/// histogram, which has process lifetime like every metric, is the
/// only copy. Version 5 dropped the per-window count rings: a window
/// close derives them from the window's arrival times.
pub const VERSION: u32 = 5;
/// Fixed header size: magic + version + payload length + checksum.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure while reading or writing.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// The file's layout version is not [`VERSION`]; see the module
    /// docs for the no-migration policy.
    UnsupportedVersion(u32),
    /// Payload checksum mismatch: the file is corrupt (torn write,
    /// bit rot, truncation past the length field).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload actually present.
        found: u64,
    },
    /// The file ends before the declared payload does.
    Truncated,
    /// The payload decoded to something structurally impossible.
    Malformed(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => {
                write!(f, "not a checkpoint file (bad magic)")
            }
            CheckpointError::UnsupportedVersion(v) => write!(
                f,
                "unsupported checkpoint version {v} (this build reads version {VERSION}); \
                 rerun from the start of the log"
            ),
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch (header {expected:#018x}, payload {found:#018x}): \
                 the file is corrupt; refusing to resume from it"
            ),
            CheckpointError::Truncated => {
                write!(
                    f,
                    "checkpoint file is truncated; refusing to resume from it"
                )
            }
            CheckpointError::Malformed(what) => {
                write!(f, "checkpoint payload is malformed: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Where a resumable source stood when the checkpoint was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourcePosition {
    /// Bytes of input fully consumed (seek target on resume).
    pub byte_offset: u64,
    /// Lines consumed (1-based line number of the last line read).
    pub line_no: u64,
    /// Records successfully parsed and yielded.
    pub parsed: u64,
    /// Malformed lines skipped (lenient mode).
    pub skipped: u64,
    /// Breakdown of the skipped lines by cause.
    pub malformed: MalformedBreakdown,
}

/// One complete checkpoint: everything needed to resume an interrupted
/// `stream-analyze` run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Engine configuration at checkpoint time. Restore uses it
    /// verbatim — resuming under a different configuration would change
    /// the analysis mid-stream.
    pub config: StreamConfig,
    /// Full engine state.
    pub engine: EngineState,
    /// Source position (seek target plus parse counters).
    pub source: SourcePosition,
    /// Event-ring sequence at checkpoint time; resume fast-forwards
    /// the ring past it so event seqs never repeat across a restart.
    pub events_seq: u64,
    /// Poison records skipped by the supervisor so far, by cause.
    pub poison: MalformedBreakdown,
    /// Engine restarts performed by the supervisor so far.
    pub recoveries: u64,
    /// Transient-fault retries performed so far.
    pub transient_retries: u64,
    /// Checkpoints written so far (this one included).
    pub checkpoints_written: u64,
    /// The run's governor stage ([`webpuzzle_obs::governor::PressureState::code`];
    /// 0 without a governor). Restore seeds the resumed run's governor
    /// with it so degradation resumes where it stood, not in Green.
    pub governor_state: u8,
}

// ---------------------------------------------------------------------
// FNV-1a 64
// ---------------------------------------------------------------------

/// FNV-1a 64-bit hash — tiny, dependency-free, and plenty for torn-write
/// detection (this is an integrity check, not an adversarial MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------
// Encoder / decoder primitives
// ---------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        // Bit-exact: NaN payloads, -0.0, and the engine's -inf
        // sentinels all survive the round trip.
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn f64_slice(&mut self, xs: &[f64]) {
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

type DecResult<T> = Result<T, CheckpointError>;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self.at.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> DecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("bool tag")),
        }
    }

    fn u32(&mut self) -> DecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> DecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn usize(&mut self) -> DecResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CheckpointError::Malformed("length exceeds usize"))
    }

    /// A length that will be used to allocate: sanity-capped against
    /// the bytes actually remaining so a corrupt length field cannot
    /// trigger a huge allocation before the checksum would catch it.
    fn len(&mut self, min_elem_bytes: usize) -> DecResult<usize> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.at;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }

    fn f64(&mut self) -> DecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt_f64(&mut self) -> DecResult<Option<f64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(CheckpointError::Malformed("option tag")),
        }
    }

    fn opt_u64(&mut self) -> DecResult<Option<u64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(CheckpointError::Malformed("option tag")),
        }
    }

    fn str(&mut self) -> DecResult<String> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Malformed("non-UTF-8 string"))
    }

    fn f64_vec(&mut self) -> DecResult<Vec<f64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn done(&self) -> DecResult<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Malformed("trailing bytes after payload"))
        }
    }
}

// ---------------------------------------------------------------------
// Per-type encoding
// ---------------------------------------------------------------------

fn enc_window_config(e: &mut Enc, c: &WindowConfig) {
    e.f64(c.window_len);
    e.f64(c.bin_width);
    e.opt_f64(c.fine_bin_width);
    e.usize(c.min_poisson_arrivals);
    e.u64(c.seed);
}

fn dec_window_config(d: &mut Dec) -> DecResult<WindowConfig> {
    Ok(WindowConfig {
        window_len: d.f64()?,
        bin_width: d.f64()?,
        fine_bin_width: d.opt_f64()?,
        min_poisson_arrivals: d.usize()?,
        seed: d.u64()?,
    })
}

fn enc_observatory_config(e: &mut Enc, c: &ObservatoryConfig) {
    e.u64(c.warmup_windows);
    e.f64(c.cusum_k);
    e.f64(c.cusum_h);
    e.f64(c.ph_delta);
    e.f64(c.ph_lambda);
    e.f64(c.ewma_lambda);
    e.f64(c.ewma_l);
    e.opt_u64(c.seasonal_period);
    e.f64(c.min_baseline_std);
}

fn dec_observatory_config(d: &mut Dec) -> DecResult<ObservatoryConfig> {
    Ok(ObservatoryConfig {
        warmup_windows: d.u64()?,
        cusum_k: d.f64()?,
        cusum_h: d.f64()?,
        ph_delta: d.f64()?,
        ph_lambda: d.f64()?,
        ewma_lambda: d.f64()?,
        ewma_l: d.f64()?,
        seasonal_period: d.opt_u64()?,
        min_baseline_std: d.f64()?,
    })
}

fn enc_stream_config(e: &mut Enc, c: &StreamConfig) {
    e.f64(c.session_threshold);
    enc_window_config(e, &c.request_window);
    enc_window_config(e, &c.session_window);
    e.usize(c.tail_k);
    e.f64(c.tail_fraction);
    enc_observatory_config(e, &c.observatory);
    e.usize(c.max_open_sessions);
    e.bool(c.diagnostics);
}

fn dec_stream_config(d: &mut Dec) -> DecResult<StreamConfig> {
    Ok(StreamConfig {
        session_threshold: d.f64()?,
        request_window: dec_window_config(d)?,
        session_window: dec_window_config(d)?,
        tail_k: d.usize()?,
        tail_fraction: d.f64()?,
        observatory: dec_observatory_config(d)?,
        max_open_sessions: d.usize()?,
        diagnostics: d.bool()?,
    })
}

fn enc_session(e: &mut Enc, s: &Session) {
    e.u32(s.client);
    e.f64(s.start);
    e.f64(s.end);
    e.usize(s.request_count);
    e.u64(s.bytes);
}

fn dec_session(d: &mut Dec) -> DecResult<Session> {
    Ok(Session {
        client: d.u32()?,
        start: d.f64()?,
        end: d.f64()?,
        request_count: d.usize()?,
        bytes: d.u64()?,
    })
}

fn enc_sessionizer(e: &mut Enc, s: &SessionizerState) {
    e.f64(s.threshold);
    e.f64(s.sweep_interval);
    e.usize(s.open.len());
    for session in &s.open {
        enc_session(e, session);
    }
    e.f64(s.watermark);
    e.f64(s.last_sweep);
    e.u64(s.records_seen);
    e.u64(s.emitted);
    e.usize(s.peak_open);
    e.usize(s.max_open);
    e.u64(s.shed_sessions);
    e.u64(s.shed_records);
    e.f64(s.ttl_scale);
    e.u64(s.early_evicted);
}

fn dec_sessionizer(d: &mut Dec) -> DecResult<SessionizerState> {
    let threshold = d.f64()?;
    let sweep_interval = d.f64()?;
    let n = d.len(36)?;
    let open = (0..n).map(|_| dec_session(d)).collect::<DecResult<_>>()?;
    Ok(SessionizerState {
        threshold,
        sweep_interval,
        open,
        watermark: d.f64()?,
        last_sweep: d.f64()?,
        records_seen: d.u64()?,
        emitted: d.u64()?,
        peak_open: d.usize()?,
        max_open: d.usize()?,
        shed_sessions: d.u64()?,
        shed_records: d.u64()?,
        ttl_scale: d.f64()?,
        early_evicted: d.u64()?,
    })
}

fn enc_arrivals(e: &mut Enc, a: &ArrivalsState) {
    e.f64_slice(&a.times);
    e.u64(a.window_index);
    e.f64(a.last_time);
    e.u64(a.total_events);
}

fn dec_arrivals(d: &mut Dec) -> DecResult<ArrivalsState> {
    Ok(ArrivalsState {
        times: d.f64_vec()?,
        window_index: d.u64()?,
        last_time: d.f64()?,
        total_events: d.u64()?,
    })
}

fn verdict_code(v: PoissonVerdict) -> u8 {
    match v {
        PoissonVerdict::ConsistentWithPoisson => 0,
        PoissonVerdict::Rejected => 1,
        PoissonVerdict::NotApplicable => 2,
    }
}

fn dec_verdict(d: &mut Dec) -> DecResult<PoissonVerdict> {
    match d.u8()? {
        0 => Ok(PoissonVerdict::ConsistentWithPoisson),
        1 => Ok(PoissonVerdict::Rejected),
        2 => Ok(PoissonVerdict::NotApplicable),
        _ => Err(CheckpointError::Malformed("poisson verdict tag")),
    }
}

fn enc_window_report(e: &mut Enc, w: &WindowReport) {
    e.u64(w.index);
    e.f64(w.start);
    e.u64(w.events);
    e.opt_f64(w.h_variance_time);
    e.opt_f64(w.h_ci_half_width);
    e.opt_f64(w.h_r_squared);
    e.u64(w.h_points);
    e.opt_f64(w.h_variance_time_fine);
    e.u8(verdict_code(w.poisson_hourly));
    e.u8(verdict_code(w.poisson_ten_min));
}

fn dec_window_report(d: &mut Dec) -> DecResult<WindowReport> {
    Ok(WindowReport {
        index: d.u64()?,
        start: d.f64()?,
        events: d.u64()?,
        h_variance_time: d.opt_f64()?,
        h_ci_half_width: d.opt_f64()?,
        h_r_squared: d.opt_f64()?,
        h_points: d.u64()?,
        h_variance_time_fine: d.opt_f64()?,
        poisson_hourly: dec_verdict(d)?,
        poisson_ten_min: dec_verdict(d)?,
    })
}

fn enc_window_reports(e: &mut Enc, ws: &[WindowReport]) {
    e.usize(ws.len());
    for w in ws {
        enc_window_report(e, w);
    }
}

fn dec_window_reports(d: &mut Dec) -> DecResult<Vec<WindowReport>> {
    let n = d.len(38)?;
    (0..n).map(|_| dec_window_report(d)).collect()
}

fn agreement_code(v: AgreementVerdict) -> u8 {
    match v {
        AgreementVerdict::Agree => 0,
        AgreementVerdict::Disagree => 1,
        AgreementVerdict::LowConfidence => 2,
        AgreementVerdict::NotApplicable => 3,
    }
}

fn dec_agreement(d: &mut Dec) -> DecResult<AgreementVerdict> {
    match d.u8()? {
        0 => Ok(AgreementVerdict::Agree),
        1 => Ok(AgreementVerdict::Disagree),
        2 => Ok(AgreementVerdict::LowConfidence),
        3 => Ok(AgreementVerdict::NotApplicable),
        _ => Err(CheckpointError::Malformed("agreement verdict tag")),
    }
}

fn enc_window_diag(e: &mut Enc, w: &WindowDiagnostics) {
    e.u64(w.index);
    e.f64(w.start);
    e.opt_f64(w.alpha);
    e.opt_f64(w.alpha_ci_half_width);
    e.opt_f64(w.plateau_cv);
    e.opt_u64(w.plateau_k_lo);
    e.opt_u64(w.plateau_k_hi);
    e.opt_f64(w.h);
    e.opt_f64(w.h_ci_half_width);
    e.opt_f64(w.h_r_squared);
    e.u64(w.h_points);
    e.opt_f64(w.bytes_mean);
    e.opt_f64(w.bytes_mean_ci_half_width);
    e.opt_f64(w.interarrival_mean);
    e.opt_f64(w.interarrival_ci_half_width);
    e.u8(agreement_code(w.agreement));
    e.opt_f64(w.agreement_gap);
    e.opt_f64(w.agreement_band);
    e.opt_f64(w.agreement_score);
}

fn dec_window_diag(d: &mut Dec) -> DecResult<WindowDiagnostics> {
    Ok(WindowDiagnostics {
        index: d.u64()?,
        start: d.f64()?,
        alpha: d.opt_f64()?,
        alpha_ci_half_width: d.opt_f64()?,
        plateau_cv: d.opt_f64()?,
        plateau_k_lo: d.opt_u64()?,
        plateau_k_hi: d.opt_u64()?,
        h: d.opt_f64()?,
        h_ci_half_width: d.opt_f64()?,
        h_r_squared: d.opt_f64()?,
        h_points: d.u64()?,
        bytes_mean: d.opt_f64()?,
        bytes_mean_ci_half_width: d.opt_f64()?,
        interarrival_mean: d.opt_f64()?,
        interarrival_ci_half_width: d.opt_f64()?,
        agreement: dec_agreement(d)?,
        agreement_gap: d.opt_f64()?,
        agreement_band: d.opt_f64()?,
        agreement_score: d.opt_f64()?,
    })
}

fn enc_window_diags(e: &mut Enc, ws: &[WindowDiagnostics]) {
    e.usize(ws.len());
    for w in ws {
        enc_window_diag(e, w);
    }
}

fn dec_window_diags(d: &mut Dec) -> DecResult<Vec<WindowDiagnostics>> {
    // Minimum row size: u64 + f64 + 13 absent options + u64 + verdict.
    let n = d.len(38)?;
    (0..n).map(|_| dec_window_diag(d)).collect()
}

fn enc_welford(e: &mut Enc, w: (u64, f64, f64)) {
    e.u64(w.0);
    e.f64(w.1);
    e.f64(w.2);
}

fn dec_welford(d: &mut Dec) -> DecResult<(u64, f64, f64)> {
    Ok((d.u64()?, d.f64()?, d.f64()?))
}

fn enc_topk(e: &mut Enc, t: &(usize, u64, Vec<f64>)) {
    e.usize(t.0);
    e.u64(t.1);
    e.f64_slice(&t.2);
}

fn dec_topk(d: &mut Dec) -> DecResult<(usize, u64, Vec<f64>)> {
    Ok((d.usize()?, d.u64()?, d.f64_vec()?))
}

fn enc_baseline(e: &mut Enc, b: &BaselineState) {
    e.u64(b.n);
    e.f64(b.mean);
    e.f64(b.m2);
    e.f64(b.mu);
    e.f64(b.sigma);
}

fn dec_baseline(d: &mut Dec) -> DecResult<BaselineState> {
    Ok(BaselineState {
        n: d.u64()?,
        mean: d.f64()?,
        m2: d.f64()?,
        mu: d.f64()?,
        sigma: d.f64()?,
    })
}

fn enc_cusum(e: &mut Enc, c: &CusumState) {
    enc_baseline(e, &c.baseline);
    e.f64(c.s_pos);
    e.f64(c.s_neg);
}

fn dec_cusum(d: &mut Dec) -> DecResult<CusumState> {
    Ok(CusumState {
        baseline: dec_baseline(d)?,
        s_pos: d.f64()?,
        s_neg: d.f64()?,
    })
}

fn enc_ph(e: &mut Enc, p: &PageHinkleyState) {
    enc_baseline(e, &p.baseline);
    e.f64(p.m_up);
    e.f64(p.min_up);
    e.f64(p.m_dn);
    e.f64(p.max_dn);
}

fn dec_ph(d: &mut Dec) -> DecResult<PageHinkleyState> {
    Ok(PageHinkleyState {
        baseline: dec_baseline(d)?,
        m_up: d.f64()?,
        min_up: d.f64()?,
        m_dn: d.f64()?,
        max_dn: d.f64()?,
    })
}

fn enc_ewma(e: &mut Enc, w: &EwmaState) {
    enc_baseline(e, &w.baseline);
    e.f64(w.ewma);
}

fn dec_ewma(d: &mut Dec) -> DecResult<EwmaState> {
    Ok(EwmaState {
        baseline: dec_baseline(d)?,
        ewma: d.f64()?,
    })
}

fn enc_drift_summary(e: &mut Enc, s: &DriftSummary) {
    e.u64(s.windows);
    e.u64(s.alarms);
    e.u64(s.warn);
    e.u64(s.critical);
    e.opt_u64(s.first_alarm_window);
    e.usize(s.by_channel.len());
    for c in &s.by_channel {
        e.str(&c.detector);
        e.str(&c.metric);
        e.u64(c.alarms);
    }
}

fn dec_drift_summary(d: &mut Dec) -> DecResult<DriftSummary> {
    let windows = d.u64()?;
    let alarms = d.u64()?;
    let warn = d.u64()?;
    let critical = d.u64()?;
    let first_alarm_window = d.opt_u64()?;
    let n = d.len(24)?;
    let by_channel = (0..n)
        .map(|_| {
            Ok(ChannelAlarms {
                detector: d.str()?,
                metric: d.str()?,
                alarms: d.u64()?,
            })
        })
        .collect::<DecResult<_>>()?;
    Ok(DriftSummary {
        windows,
        alarms,
        warn,
        critical,
        first_alarm_window,
        by_channel,
    })
}

fn enc_observatory(e: &mut Enc, o: &ObservatoryState) {
    e.f64_slice(&o.seasonal_history);
    enc_cusum(e, &o.rate_cusum);
    enc_ph(e, &o.rate_ph);
    enc_cusum(e, &o.bytes_cusum);
    enc_ph(e, &o.bytes_ph);
    enc_ewma(e, &o.alpha_ewma);
    enc_ewma(e, &o.hvt_ewma);
    enc_drift_summary(e, &o.summary);
}

fn dec_observatory(d: &mut Dec) -> DecResult<ObservatoryState> {
    Ok(ObservatoryState {
        seasonal_history: d.f64_vec()?,
        rate_cusum: dec_cusum(d)?,
        rate_ph: dec_ph(d)?,
        bytes_cusum: dec_cusum(d)?,
        bytes_ph: dec_ph(d)?,
        alpha_ewma: dec_ewma(d)?,
        hvt_ewma: dec_ewma(d)?,
        summary: dec_drift_summary(d)?,
    })
}

fn enc_engine(e: &mut Enc, s: &EngineState) {
    enc_sessionizer(e, &s.sessionizer);
    enc_arrivals(e, &s.request_arrivals);
    enc_arrivals(e, &s.session_arrivals);
    enc_window_reports(e, &s.request_windows);
    enc_window_reports(e, &s.session_windows);
    enc_welford(e, s.response_bytes);
    enc_welford(e, s.session_duration);
    enc_welford(e, s.session_requests);
    enc_welford(e, s.session_bytes);
    enc_topk(e, &s.duration_tail);
    enc_topk(e, &s.requests_tail);
    enc_topk(e, &s.bytes_tail);
    e.u64(s.records);
    e.u64(s.bytes);
    enc_observatory(e, &s.observatory);
    enc_welford(e, s.window_bytes);
    e.u64(s.last_emitted);
    e.f64(s.last_evict_time);
    enc_welford(e, s.window_interarrival);
    e.f64(s.last_arrival);
    enc_window_diags(e, &s.diagnostics_windows);
    e.u8(s.degradation_mode);
    e.u64(s.sampled_out);
    e.u64(s.hard_shed_records);
    e.bool(s.forced_checkpoint_due);
}

fn dec_engine(d: &mut Dec) -> DecResult<EngineState> {
    Ok(EngineState {
        sessionizer: dec_sessionizer(d)?,
        request_arrivals: dec_arrivals(d)?,
        session_arrivals: dec_arrivals(d)?,
        request_windows: dec_window_reports(d)?,
        session_windows: dec_window_reports(d)?,
        response_bytes: dec_welford(d)?,
        session_duration: dec_welford(d)?,
        session_requests: dec_welford(d)?,
        session_bytes: dec_welford(d)?,
        duration_tail: dec_topk(d)?,
        requests_tail: dec_topk(d)?,
        bytes_tail: dec_topk(d)?,
        records: d.u64()?,
        bytes: d.u64()?,
        observatory: dec_observatory(d)?,
        window_bytes: dec_welford(d)?,
        last_emitted: d.u64()?,
        last_evict_time: d.f64()?,
        window_interarrival: dec_welford(d)?,
        last_arrival: d.f64()?,
        diagnostics_windows: dec_window_diags(d)?,
        degradation_mode: d.u8()?,
        sampled_out: d.u64()?,
        hard_shed_records: d.u64()?,
        forced_checkpoint_due: d.bool()?,
    })
}

fn enc_breakdown(e: &mut Enc, b: &MalformedBreakdown) {
    e.u64(b.bad_timestamp);
    e.u64(b.bad_status);
    e.u64(b.truncated);
    e.u64(b.other);
}

fn dec_breakdown(d: &mut Dec) -> DecResult<MalformedBreakdown> {
    Ok(MalformedBreakdown {
        bad_timestamp: d.u64()?,
        bad_status: d.u64()?,
        truncated: d.u64()?,
        other: d.u64()?,
    })
}

fn enc_source(e: &mut Enc, s: &SourcePosition) {
    e.u64(s.byte_offset);
    e.u64(s.line_no);
    e.u64(s.parsed);
    e.u64(s.skipped);
    enc_breakdown(e, &s.malformed);
}

fn dec_source(d: &mut Dec) -> DecResult<SourcePosition> {
    Ok(SourcePosition {
        byte_offset: d.u64()?,
        line_no: d.u64()?,
        parsed: d.u64()?,
        skipped: d.u64()?,
        malformed: dec_breakdown(d)?,
    })
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

impl Checkpoint {
    /// Serialize to the full on-disk byte layout (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_stream_config(&mut e, &self.config);
        enc_engine(&mut e, &self.engine);
        enc_source(&mut e, &self.source);
        e.u64(self.events_seq);
        enc_breakdown(&mut e, &self.poison);
        e.u64(self.recoveries);
        e.u64(self.transient_retries);
        e.u64(self.checkpoints_written);
        e.u8(self.governor_state);
        let payload = e.buf;

        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parse the full on-disk byte layout back into a checkpoint.
    ///
    /// # Errors
    ///
    /// Refuses anything that is not a bit-exact, checksum-clean
    /// version-[`VERSION`] checkpoint — see [`CheckpointError`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < HEADER_LEN {
            if bytes.len() >= 8 && bytes[..8] != MAGIC {
                return Err(CheckpointError::BadMagic);
            }
            return Err(CheckpointError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let expected = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if (payload.len() as u64) < len {
            return Err(CheckpointError::Truncated);
        }
        if (payload.len() as u64) > len {
            return Err(CheckpointError::Malformed("trailing bytes after payload"));
        }
        let found = fnv1a64(payload);
        if found != expected {
            return Err(CheckpointError::ChecksumMismatch { expected, found });
        }

        let mut d = Dec::new(payload);
        let ck = Checkpoint {
            config: dec_stream_config(&mut d)?,
            engine: dec_engine(&mut d)?,
            source: dec_source(&mut d)?,
            events_seq: d.u64()?,
            poison: dec_breakdown(&mut d)?,
            recoveries: d.u64()?,
            transient_retries: d.u64()?,
            checkpoints_written: d.u64()?,
            governor_state: d.u8()?,
        };
        d.done()?;
        Ok(ck)
    }

    /// Write the checkpoint atomically with one-deep rotation: temp
    /// file in the target directory, `sync_all`, rename the current
    /// checkpoint (if any) to [`Checkpoint::previous_path`], rename the
    /// temp file over `path`, best-effort directory fsync. A crash at
    /// any point leaves a loadable generation: either the old file
    /// under `path`, or — in the window between the two renames — the
    /// old file under `path.1`, which
    /// [`Checkpoint::load_with_fallback`] finds.
    ///
    /// # Errors
    ///
    /// Filesystem errors as [`CheckpointError::Io`].
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.encode();
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let tmp = path.with_extension("tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        // Keep the previous generation: if the new file turns out torn
        // (a crash mid-rename dance, media corruption later), recovery
        // falls back one checkpoint instead of starting from zero.
        if path.exists() {
            if let Err(e) = fs::rename(path, Self::previous_path(path)) {
                let _ = fs::remove_file(&tmp);
                return Err(e.into());
            }
        }
        if let Err(e) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        // Make the renames durable where the platform allows opening
        // directories; failure here cannot produce a torn file, so it
        // is not fatal.
        if let Some(dir) = dir {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Where [`Checkpoint::save`] parks the previous generation:
    /// `path` with `.1` appended (`run.ckpt` → `run.ckpt.1`).
    pub fn previous_path(path: &Path) -> PathBuf {
        let mut os = path.as_os_str().to_os_string();
        os.push(".1");
        PathBuf::from(os)
    }

    /// Read and validate a checkpoint file.
    ///
    /// # Errors
    ///
    /// Filesystem errors and every validation failure in
    /// [`Checkpoint::decode`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = fs::read(path)?;
        Checkpoint::decode(&bytes)
    }

    /// Read the latest checkpoint, falling back to the rotated previous
    /// generation when the latest is missing, torn, or corrupt. Returns
    /// the checkpoint and whether the fallback was taken (callers
    /// should surface that — it means some progress was re-done).
    ///
    /// # Errors
    ///
    /// The *latest* generation's error when both generations fail —
    /// that is the file the operator pointed at.
    pub fn load_with_fallback(path: &Path) -> Result<(Self, bool), CheckpointError> {
        match Checkpoint::load(path) {
            Ok(ck) => Ok((ck, false)),
            Err(latest_err) => match Checkpoint::load(&Self::previous_path(path)) {
                Ok(ck) => Ok((ck, true)),
                Err(_) => Err(latest_err),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamAnalyzer;
    use webpuzzle_weblog::{LogRecord, Method};

    fn sample_checkpoint() -> Checkpoint {
        let cfg = StreamConfig {
            session_threshold: 100.0,
            max_open_sessions: 64,
            ..StreamConfig::default()
        };
        let mut engine = StreamAnalyzer::new(cfg.clone()).unwrap();
        for i in 0..3_000u32 {
            let r = LogRecord::new(
                i as f64 * 0.7,
                i % 151,
                Method::Get,
                i % 151,
                200,
                64 + (i as u64 * 17) % 9_000,
            );
            engine.push(&r).unwrap();
        }
        Checkpoint {
            config: cfg,
            engine: engine.export_state(),
            source: SourcePosition {
                byte_offset: 123_456,
                line_no: 3_010,
                parsed: 3_000,
                skipped: 10,
                malformed: MalformedBreakdown {
                    bad_timestamp: 4,
                    bad_status: 3,
                    truncated: 2,
                    other: 1,
                },
            },
            events_seq: 42,
            poison: MalformedBreakdown::default(),
            recoveries: 1,
            transient_retries: 7,
            checkpoints_written: 5,
            governor_state: 1,
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_for_bit() {
        let ck = sample_checkpoint();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back, ck);
        // Encoding is deterministic: same state, same bytes.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn neg_infinity_sentinels_survive_the_codec() {
        // A fresh engine carries -inf watermarks and eviction clocks —
        // the reason this codec exists instead of JSON.
        let cfg = StreamConfig::default();
        let engine = StreamAnalyzer::new(cfg.clone()).unwrap();
        let state = engine.export_state();
        assert_eq!(state.sessionizer.watermark, f64::NEG_INFINITY);
        assert_eq!(state.last_evict_time, f64::NEG_INFINITY);
        let ck = Checkpoint {
            config: cfg,
            engine: state,
            source: SourcePosition::default(),
            events_seq: 0,
            poison: MalformedBreakdown::default(),
            recoveries: 0,
            transient_retries: 0,
            checkpoints_written: 0,
            governor_state: 0,
        };
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back.engine.sessionizer.watermark, f64::NEG_INFINITY);
        assert_eq!(back.engine.last_evict_time, f64::NEG_INFINITY);
        assert_eq!(back, ck);
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let ck = sample_checkpoint();
        let dir = std::env::temp_dir().join("webpuzzle-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ck");
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, ck);
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file left behind"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_refused_with_checksum_mismatch() {
        let ck = sample_checkpoint();
        let mut bytes = ck.encode();
        let flip = HEADER_LEN + 100;
        bytes[flip] ^= 0xFF;
        match Checkpoint::decode(&bytes) {
            Err(CheckpointError::ChecksumMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("corrupt checkpoint accepted: {other:?}"),
        }
    }

    #[test]
    fn truncation_bad_magic_and_bad_version_are_refused() {
        let ck = sample_checkpoint();
        let bytes = ck.encode();

        let cut = &bytes[..bytes.len() / 2];
        assert!(matches!(
            Checkpoint::decode(cut),
            Err(CheckpointError::Truncated)
        ));

        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert!(matches!(
            Checkpoint::decode(&magic),
            Err(CheckpointError::BadMagic)
        ));

        // Versions 3 and 4 (before the transfer-size histogram, then the
        // count rings, were dropped) and an unknown future version.
        for v in [3u32, 4, 99] {
            let mut version = bytes.clone();
            version[8..12].copy_from_slice(&v.to_le_bytes());
            match Checkpoint::decode(&version) {
                Err(CheckpointError::UnsupportedVersion(found)) => assert_eq!(found, v),
                other => panic!("version {v} accepted: {other:?}"),
            }
        }

        assert!(matches!(
            Checkpoint::decode(&[]),
            Err(CheckpointError::Truncated)
        ));
    }

    #[test]
    fn rotation_keeps_the_previous_generation_and_falls_back_on_corruption() {
        let dir = std::env::temp_dir().join("webpuzzle-ckpt-rotate-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ck");
        let prev = Checkpoint::previous_path(&path);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&prev);

        let mut first = sample_checkpoint();
        first.checkpoints_written = 1;
        let mut second = sample_checkpoint();
        second.checkpoints_written = 2;

        // First save: no rotation partner yet.
        first.save(&path).unwrap();
        assert!(!prev.exists());
        // Second save rotates the first out of the way.
        second.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), second);
        assert_eq!(Checkpoint::load(&prev).unwrap(), first);

        // A clean latest never takes the fallback.
        let (ck, fell_back) = Checkpoint::load_with_fallback(&path).unwrap();
        assert_eq!(ck, second);
        assert!(!fell_back);

        // Kill-mid-write: tear the latest generation in half. Recovery
        // falls back one checkpoint instead of starting over.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let (ck, fell_back) = Checkpoint::load_with_fallback(&path).unwrap();
        assert_eq!(ck, first);
        assert!(fell_back);

        // Latest gone entirely (crash between the two renames): the
        // rotated generation still answers.
        fs::remove_file(&path).unwrap();
        let (ck, fell_back) = Checkpoint::load_with_fallback(&path).unwrap();
        assert_eq!(ck, first);
        assert!(fell_back);

        // Both generations bad: the latest generation's error wins.
        fs::write(&prev, b"garbage").unwrap();
        match Checkpoint::load_with_fallback(&path) {
            Err(CheckpointError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
            }
            other => panic!("expected the latest generation's error, got {other:?}"),
        }
        let _ = fs::remove_file(&prev);
    }

    #[test]
    fn decoded_engine_state_restores_a_working_engine() {
        let ck = sample_checkpoint();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        let mut engine = StreamAnalyzer::restore(back.config.clone(), &back.engine).unwrap();
        assert_eq!(engine.export_state(), ck.engine);
        // The restored engine keeps working past the checkpoint.
        let r = LogRecord::new(2_101.0, 7, Method::Get, 7, 200, 512);
        engine.push(&r).unwrap();
        assert_eq!(engine.records(), ck.engine.records + 1);
    }
}
