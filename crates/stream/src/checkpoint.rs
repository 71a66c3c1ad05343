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
//! The payload is the [`Checkpoint`]'s fields in order, each written
//! by its type's wire layout: integers little-endian, `usize` as a
//! u64, `f64` as its bits, `bool` and `Option` as a 0/1 tag (then the
//! value), `String` and `Vec` as a u64 length and then the elements.
//! Each checkpointed struct's layout is its one declaration in this
//! module, a list of its field names in payload order, from which both
//! the encoder and the decoder are generated; each enum's is its table
//! of one-byte tags. The structs are the types the engine runs on
//! ([`Welford`], the drift detectors' states, ...), not copies of them;
//! [`TopK`] alone is written by hand, as `k`, `seen` and its values
//! descending, because its heap is not a field list.
//!
//! To add a field to a leaf type or a detector: add it to the struct
//! and its name to that struct's declaration (a field left out does
//! not build). To add an [`EngineState`] field: do the same, give
//! [`crate::StreamAnalyzer`] the field, and add its line to its
//! `export_state` and `restore`. Either way, bump [`VERSION`] and
//! regenerate the golden fixture `tests/data/checkpoint_v<VERSION>.bin`
//! that the tests decode.
//!
//! [`Checkpoint::save`] writes atomically: temp file in the target
//! directory, `sync_all`, the current file renamed to
//! [`Checkpoint::previous_path`] (`<path>.1`), the temp file renamed
//! over the target, best-effort directory fsync. A crash mid-write
//! leaves a loadable generation; a torn read is caught by the length
//! or checksum and refused with a clear error rather than resumed from
//! silently. [`Checkpoint::load_with_fallback`], which `--resume`
//! uses, then falls back to `<path>.1`.
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
use crate::online::{TopK, Welford};
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
// Wire layout
// ---------------------------------------------------------------------

/// A type's payload encoding. Both directions of every checkpointed
/// struct come from one field list (`wire_struct!`), so the encoder
/// and the decoder cannot drift apart.
trait Wire: Sized {
    /// Length of the smallest encoding: every `Option` absent, every
    /// `Vec` and `String` empty. A decoded element count is capped by
    /// it, so a corrupt length cannot allocate past the payload.
    const MIN_BYTES: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(d: &mut Dec) -> DecResult<Self>;
}

struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

type DecResult<T> = Result<T, CheckpointError>;

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self.at.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    /// A length that will be used to allocate: sanity-capped against
    /// the bytes actually remaining so a corrupt length field cannot
    /// trigger a huge allocation before the checksum would catch it.
    fn len(&mut self, min_elem_bytes: usize) -> DecResult<usize> {
        let n = usize::get(self)?;
        let remaining = self.buf.len() - self.at;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }
}

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(d: &mut Dec) -> DecResult<Self> {
                let b = d.take(Self::MIN_BYTES)?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("take returns the length asked for")))
            }
        }
    )*};
}

wire_le!(u8, u32, u64);

impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(d: &mut Dec) -> DecResult<Self> {
        usize::try_from(u64::get(d)?)
            .map_err(|_| CheckpointError::Malformed("length exceeds usize"))
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(d: &mut Dec) -> DecResult<Self> {
        match u8::get(d)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("bool tag")),
        }
    }
}

impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        // Bit-exact: NaN payloads, -0.0, and the engine's -inf
        // sentinels all survive the round trip.
        self.to_bits().put(out);
    }
    fn get(d: &mut Dec) -> DecResult<Self> {
        Ok(f64::from_bits(u64::get(d)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                out.push(1);
                v.put(out);
            }
            None => out.push(0),
        }
    }
    fn get(d: &mut Dec) -> DecResult<Self> {
        match u8::get(d)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d)?)),
            _ => Err(CheckpointError::Malformed("option tag")),
        }
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(d: &mut Dec) -> DecResult<Self> {
        let n = d.len(1)?;
        String::from_utf8(d.take(n)?.to_vec())
            .map_err(|_| CheckpointError::Malformed("non-UTF-8 string"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
    fn get(d: &mut Dec) -> DecResult<Self> {
        let n = d.len(T::MIN_BYTES)?;
        (0..n).map(|_| T::get(d)).collect()
    }
}

/// A top-k tail travels as `k`, `seen` and its retained values,
/// descending; the decoder refuses a tail that no run could hold (see
/// [`TopK`]'s rebuild).
impl Wire for TopK {
    const MIN_BYTES: usize = usize::MIN_BYTES + u64::MIN_BYTES + Vec::<f64>::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.k.put(out);
        self.seen.put(out);
        self.descending().put(out);
    }
    fn get(d: &mut Dec) -> DecResult<Self> {
        let k = usize::get(d)?;
        let seen = u64::get(d)?;
        TopK::from_descending(k, seen, Vec::get(d)?).map_err(CheckpointError::Malformed)
    }
}

/// `MIN_BYTES` of the field that `field` reads, so a declaration names
/// its fields without restating their types.
const fn min_bytes_of<S, T: Wire>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// Declares each struct's wire layout: its fields, in payload order.
/// `put` destructures without `..`, so a field missing from the list
/// does not build; `get` builds the struct in the same order.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = {
                let mut n = 0;
                $(n += min_bytes_of(|s: &$ty| &s.$field);)*
                n
            };
            fn put(&self, out: &mut Vec<u8>) {
                let $ty { $($field),* } = self;
                $($field.put(out);)*
            }
            fn get(d: &mut Dec) -> DecResult<Self> {
                Ok($ty { $($field: Wire::get(d)?),* })
            }
        }
    )*};
}

/// Declares each enum's one-byte tags; an unknown tag is refused as
/// `Malformed($what)`.
macro_rules! wire_enum {
    ($($ty:ident($what:literal) { $($variant:ident = $code:literal),* $(,)? })*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                out.push(match self {
                    $($ty::$variant => $code,)*
                });
            }
            fn get(d: &mut Dec) -> DecResult<Self> {
                match u8::get(d)? {
                    $($code => Ok($ty::$variant),)*
                    _ => Err(CheckpointError::Malformed($what)),
                }
            }
        }
    )*};
}

wire_enum! {
    PoissonVerdict("poisson verdict tag") {
        ConsistentWithPoisson = 0, Rejected = 1, NotApplicable = 2,
    }
    AgreementVerdict("agreement verdict tag") {
        Agree = 0, Disagree = 1, LowConfidence = 2, NotApplicable = 3,
    }
}

wire_struct! {
    WindowConfig { window_len, bin_width, fine_bin_width, min_poisson_arrivals, seed }
    ObservatoryConfig {
        warmup_windows, cusum_k, cusum_h, ph_delta, ph_lambda, ewma_lambda, ewma_l,
        seasonal_period, min_baseline_std,
    }
    StreamConfig {
        session_threshold, request_window, session_window, tail_k, tail_fraction, observatory,
        max_open_sessions, diagnostics,
    }
    Session { client, start, end, request_count, bytes }
    SessionizerState {
        threshold, sweep_interval, open, watermark, last_sweep, records_seen, emitted,
        peak_open, max_open, shed_sessions, shed_records, ttl_scale, early_evicted,
    }
    ArrivalsState { times, window_index, last_time, total_events }
    WindowReport {
        index, start, events, h_variance_time, h_ci_half_width, h_r_squared, h_points,
        h_variance_time_fine, poisson_hourly, poisson_ten_min,
    }
    WindowDiagnostics {
        index, start, alpha, alpha_ci_half_width, plateau_cv, plateau_k_lo, plateau_k_hi, h,
        h_ci_half_width, h_r_squared, h_points, bytes_mean, bytes_mean_ci_half_width,
        interarrival_mean, interarrival_ci_half_width, agreement, agreement_gap,
        agreement_band, agreement_score,
    }
    Welford { n, mean, m2 }
    BaselineState { acc, mu, sigma }
    CusumState { baseline, s_pos, s_neg }
    PageHinkleyState { baseline, m_up, min_up, m_dn, max_dn }
    EwmaState { baseline, ewma }
    ChannelAlarms { detector, metric, alarms }
    DriftSummary { windows, alarms, warn, critical, first_alarm_window, by_channel }
    ObservatoryState {
        seasonal_history, rate_cusum, rate_ph, bytes_cusum, bytes_ph, alpha_ewma, hvt_ewma,
        summary,
    }
    EngineState {
        sessionizer, request_arrivals, session_arrivals, request_windows, session_windows,
        response_bytes, session_duration, session_requests, session_bytes, duration_tail,
        requests_tail, bytes_tail, records, bytes, observatory, window_bytes, last_emitted,
        last_evict_time, window_interarrival, last_arrival, diagnostics_windows,
        degradation_mode, sampled_out, hard_shed_records, forced_checkpoint_due,
    }
    MalformedBreakdown { bad_timestamp, bad_status, truncated, other }
    SourcePosition { byte_offset, line_no, parsed, skipped, malformed }
    Checkpoint {
        config, engine, source, events_seq, poison, recoveries, transient_retries,
        checkpoints_written, governor_state,
    }
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

impl Checkpoint {
    /// Serialize to the full on-disk byte layout (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        // Length and checksum are filled in once the payload is known.
        out.resize(HEADER_LEN, 0);
        self.put(&mut out);
        let payload = &out[HEADER_LEN..];
        let len = (payload.len() as u64).to_le_bytes();
        let fnv = fnv1a64(payload).to_le_bytes();
        out[12..20].copy_from_slice(&len);
        out[20..28].copy_from_slice(&fnv);
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

        let mut d = Dec {
            buf: payload,
            at: 0,
        };
        let ck = Checkpoint::get(&mut d)?;
        if d.at != payload.len() {
            return Err(CheckpointError::Malformed("trailing bytes after payload"));
        }
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
    use proptest::prelude::*;
    use webpuzzle_weblog::{LogRecord, Method};

    /// A version-5 checkpoint of a loaded engine, as the version-5
    /// build wrote it: `genlog --profile csee --scale 0.02 --seed 7`,
    /// then `stream-analyze` on that log with `--checkpoint ck.bin
    /// --checkpoint-every 2000 --inject-faults crash=5000
    /// --max-restores 0` (the second checkpoint, at record 4 000). A
    /// layout change bumps [`VERSION`] and regenerates it the same way.
    const GOLDEN: &[u8] = include_bytes!("../tests/data/checkpoint_v5.bin");

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

    #[test]
    fn golden_fixture_decodes_re_encodes_and_restores() {
        let ck = Checkpoint::decode(GOLDEN).unwrap();
        assert_eq!(ck.encode(), GOLDEN);
        assert_eq!(ck.engine.records, 4_000);
        assert_eq!(ck.source.parsed, 4_000);
        assert_eq!(ck.checkpoints_written, 2);
        let mut engine = StreamAnalyzer::restore(ck.config.clone(), &ck.engine).unwrap();
        assert_eq!(engine.export_state(), ck.engine);
        let t = ck.engine.sessionizer.watermark + 1.0;
        engine
            .push(&LogRecord::new(t, 7, Method::Get, 7, 200, 512))
            .unwrap();
        assert_eq!(engine.records(), 4_001);
    }

    /// `payload` under a fresh header, so an edit reaches the decoder
    /// instead of stopping at the length or checksum check.
    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut out = GOLDEN[..HEADER_LEN].to_vec();
        out[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        out[20..28].copy_from_slice(&fnv1a64(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Decoding is injective and total: an edited payload (bit
        /// flips, a truncation, bytes inserted or deleted) is refused
        /// with an error, or decodes to a checkpoint that encodes back
        /// to exactly those bytes.
        #[test]
        fn edited_payloads_are_refused_or_re_encode_exactly(
            edits in proptest::collection::vec((0u8..4, any::<u32>(), any::<u8>()), 1..4)
        ) {
            let mut payload = GOLDEN[HEADER_LEN..].to_vec();
            for (kind, at, byte) in edits {
                let at = at as usize % (payload.len() + 1);
                match kind {
                    0 if at < payload.len() => payload[at] ^= 1 << (byte % 8),
                    1 => payload.truncate(at),
                    2 => payload.insert(at, byte),
                    3 if at < payload.len() => {
                        payload.remove(at);
                    }
                    _ => {}
                }
            }
            let bytes = sealed(&payload);
            if let Ok(ck) = Checkpoint::decode(&bytes) {
                prop_assert_eq!(ck.encode(), bytes);
            }
        }
    }

    /// The golden file with its bytes-per-session tail replaced by one
    /// encoded from `k`, `seen` and `values`, under a fresh header.
    fn golden_with_bytes_tail(k: usize, seen: u64, values: &[f64]) -> Vec<u8> {
        let payload = &GOLDEN[HEADER_LEN..];
        let mut tail = Vec::new();
        Checkpoint::decode(GOLDEN)
            .unwrap()
            .engine
            .bytes_tail
            .put(&mut tail);
        let at = payload
            .windows(tail.len())
            .position(|w| w == tail)
            .expect("the tail's encoding is in the payload");
        let mut edited = payload[..at].to_vec();
        k.put(&mut edited);
        seen.put(&mut edited);
        values.to_vec().put(&mut edited);
        edited.extend_from_slice(&payload[at + tail.len()..]);
        sealed(&edited)
    }

    #[test]
    fn top_k_tails_no_run_could_hold_are_refused() {
        let golden = Checkpoint::decode(GOLDEN).unwrap().engine.bytes_tail;
        let (k, seen, values) = (golden.k, golden.seen, golden.descending());
        assert_eq!(golden_with_bytes_tail(k, seen, &values), GOLDEN);
        // Ties are what a run holds: equal values stay adjacent.
        let tied = Checkpoint::decode(&golden_with_bytes_tail(4, 9, &[3.0, 2.0, 2.0])).unwrap();
        assert_eq!(tied.engine.bytes_tail.descending(), [3.0, 2.0, 2.0]);
        for (what, k, seen, values) in [
            ("k below 2", 1, 9, vec![3.0]),
            ("an ascending pair", 4, 9, vec![3.0, 1.0, 2.0]),
            ("a NaN", 4, 9, vec![3.0, f64::NAN]),
            ("a zero", 4, 9, vec![3.0, 0.0]),
            ("more values than k", 2, 9, vec![3.0, 2.0, 1.0]),
            ("more values than seen", 4, 2, vec![3.0, 2.0, 1.0]),
        ] {
            let bytes = golden_with_bytes_tail(k, seen, &values);
            assert!(
                matches!(
                    Checkpoint::decode(&bytes),
                    Err(CheckpointError::Malformed(_))
                ),
                "a tail with {what} was not refused"
            );
        }
    }

    fn assert_smallest_is_min_bytes<T: Wire>(smallest: &T) {
        let mut out = Vec::new();
        smallest.put(&mut out);
        assert_eq!(out.len(), T::MIN_BYTES, "{}", std::any::type_name::<T>());
    }

    #[test]
    fn smallest_encoding_of_every_declared_type_is_min_bytes() {
        let window = WindowConfig {
            fine_bin_width: None,
            ..WindowConfig::default()
        };
        let config = StreamConfig {
            request_window: window.clone(),
            session_window: window,
            observatory: ObservatoryConfig {
                seasonal_period: None,
                ..ObservatoryConfig::default()
            },
            ..StreamConfig::default()
        };
        // A fresh engine holds no sessions, arrivals, windows or alarms.
        let engine = StreamAnalyzer::new(config.clone()).unwrap().export_state();
        let ck = Checkpoint {
            config,
            engine,
            source: SourcePosition::default(),
            events_seq: 0,
            poison: MalformedBreakdown::default(),
            recoveries: 0,
            transient_retries: 0,
            checkpoints_written: 0,
            governor_state: 0,
        };
        let (e, o) = (&ck.engine, &ck.engine.observatory);
        assert_smallest_is_min_bytes(&ck);
        assert_smallest_is_min_bytes(&ck.config);
        assert_smallest_is_min_bytes(&ck.config.request_window);
        assert_smallest_is_min_bytes(&ck.config.observatory);
        assert_smallest_is_min_bytes(&ck.source);
        assert_smallest_is_min_bytes(&ck.poison);
        assert_smallest_is_min_bytes(e);
        assert_smallest_is_min_bytes(&e.sessionizer);
        assert_smallest_is_min_bytes(&e.request_arrivals);
        assert_smallest_is_min_bytes(&e.response_bytes);
        assert_smallest_is_min_bytes(&e.duration_tail);
        assert_smallest_is_min_bytes(o);
        assert_smallest_is_min_bytes(&o.rate_cusum);
        assert_smallest_is_min_bytes(&o.rate_cusum.baseline);
        assert_smallest_is_min_bytes(&o.rate_ph);
        assert_smallest_is_min_bytes(&o.alpha_ewma);
        assert_smallest_is_min_bytes(&o.summary);
        assert_smallest_is_min_bytes(&Session {
            client: 0,
            start: 0.0,
            end: 0.0,
            request_count: 0,
            bytes: 0,
        });
        assert_smallest_is_min_bytes(&ChannelAlarms {
            detector: String::new(),
            metric: String::new(),
            alarms: 0,
        });
        assert_smallest_is_min_bytes(&WindowReport {
            index: 0,
            start: 0.0,
            events: 0,
            h_variance_time: None,
            h_ci_half_width: None,
            h_r_squared: None,
            h_points: 0,
            h_variance_time_fine: None,
            poisson_hourly: PoissonVerdict::NotApplicable,
            poisson_ten_min: PoissonVerdict::NotApplicable,
        });
        assert_smallest_is_min_bytes(&WindowDiagnostics {
            index: 0,
            start: 0.0,
            alpha: None,
            alpha_ci_half_width: None,
            plateau_cv: None,
            plateau_k_lo: None,
            plateau_k_hi: None,
            h: None,
            h_ci_half_width: None,
            h_r_squared: None,
            h_points: 0,
            bytes_mean: None,
            bytes_mean_ci_half_width: None,
            interarrival_mean: None,
            interarrival_ci_half_width: None,
            agreement: AgreementVerdict::NotApplicable,
            agreement_gap: None,
            agreement_band: None,
            agreement_score: None,
        });
        assert_smallest_is_min_bytes(&PoissonVerdict::Rejected);
        assert_smallest_is_min_bytes(&AgreementVerdict::Agree);
        assert_smallest_is_min_bytes(&0u8);
        assert_smallest_is_min_bytes(&0u32);
        assert_smallest_is_min_bytes(&0u64);
        assert_smallest_is_min_bytes(&0usize);
        assert_smallest_is_min_bytes(&false);
        assert_smallest_is_min_bytes(&0.0f64);
        assert_smallest_is_min_bytes(&None::<f64>);
        assert_smallest_is_min_bytes(&String::new());
        assert_smallest_is_min_bytes(&Vec::<f64>::new());
        // The per-element allocation caps of the version-5 decoder.
        assert_eq!(Session::MIN_BYTES, 36);
        assert_eq!(WindowReport::MIN_BYTES, 38);
        assert_eq!(ChannelAlarms::MIN_BYTES, 24);
        assert_eq!(f64::MIN_BYTES, 8);
        assert_eq!(WindowDiagnostics::MIN_BYTES, 40);
    }
}
