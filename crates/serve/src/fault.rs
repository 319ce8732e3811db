//! Deterministic fault injection for the serving stack.
//!
//! The chaos suite needs the daemon to misbehave *reproducibly*: the same
//! seed must inject the same faults in the same per-site order, so a
//! failure found in CI replays locally. Every injection decision is drawn
//! from a counter-mode SplitMix64 stream keyed by `(seed, site, n)` where
//! `n` is a per-site atomic sequence number — the n-th decision at a site
//! is a pure function of the seed, independent of wall clock and (per
//! site) of thread interleaving. Which *request* the n-th decision lands
//! on does depend on scheduling; what the suite relies on is the
//! deterministic per-site fault mix, not a per-request script.
//!
//! Injection is env-gated: production code calls [`FaultPlan::from_env`],
//! which returns the zero-cost disabled plan unless `RTT_FAULTS` is set.
//! Tests construct plans directly.
//!
//! ```
//! use rtt_serve::fault::{FaultMode, FaultSpec};
//!
//! let plan = FaultSpec::new(42).rate(0.5).build();
//! // Deterministic: the same seed always yields the same decision stream.
//! let first: Vec<bool> = (0..8).map(|_| plan.decide(FaultMode::ShortRead)).collect();
//! let again = FaultSpec::new(42).rate(0.5).build();
//! let second: Vec<bool> = (0..8).map(|_| again.decide(FaultMode::ShortRead)).collect();
//! assert_eq!(first, second);
//! ```

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The fault modes the serving stack can inject.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultMode {
    /// Socket reads return a 1-byte sliver, exercising incremental
    /// request parsing.
    ShortRead,
    /// Socket writes accept only a prefix, exercising the response-write
    /// resume loop.
    ShortWrite,
    /// The peer vanishes mid-request/mid-response (simulated
    /// `BrokenPipe` / EOF).
    Disconnect,
    /// The socket stalls for [`FaultPlan::stall_ms`] before the next IO,
    /// exercising read timeouts and deadlines.
    Stall,
    /// A model file read during hot-reload comes back truncated or
    /// bit-flipped, exercising `model_io`'s typed rejection.
    CorruptReload,
    /// The request queue reports full, exercising 503 backpressure.
    QueueFull,
    /// A `/transform` request aborts after mutating its working copy but
    /// before publishing, exercising the all-or-nothing publish step (the
    /// design and its incremental cache must be left exactly as they
    /// were).
    TransformAbort,
}

/// Every mode, in a fixed order (indexes the per-mode counters).
pub const ALL_MODES: [FaultMode; 7] = [
    FaultMode::ShortRead,
    FaultMode::ShortWrite,
    FaultMode::Disconnect,
    FaultMode::Stall,
    FaultMode::CorruptReload,
    FaultMode::QueueFull,
    FaultMode::TransformAbort,
];

impl FaultMode {
    fn index(self) -> usize {
        match self {
            Self::ShortRead => 0,
            Self::ShortWrite => 1,
            Self::Disconnect => 2,
            Self::Stall => 3,
            Self::CorruptReload => 4,
            Self::QueueFull => 5,
            Self::TransformAbort => 6,
        }
    }

    /// Stable name (env spec syntax and `/stats` keys).
    pub fn name(self) -> &'static str {
        match self {
            Self::ShortRead => "short_read",
            Self::ShortWrite => "short_write",
            Self::Disconnect => "disconnect",
            Self::Stall => "stall",
            Self::CorruptReload => "corrupt_reload",
            Self::QueueFull => "queue_full",
            Self::TransformAbort => "transform_abort",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        ALL_MODES.iter().copied().find(|m| m.name() == s)
    }
}

/// Builder for a [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct FaultSpec {
    seed: u64,
    rate_ppm: [u32; 7],
    stall_ms: u64,
}

impl FaultSpec {
    /// Starts a spec with every mode off.
    pub fn new(seed: u64) -> Self {
        Self { seed, rate_ppm: [0; 7], stall_ms: 25 }
    }

    /// Sets one mode's injection probability (`0.0..=1.0`).
    #[must_use]
    pub fn mode(mut self, mode: FaultMode, probability: f64) -> Self {
        self.rate_ppm[mode.index()] = ppm(probability);
        self
    }

    /// Sets every mode's injection probability (`0.0..=1.0`).
    #[must_use]
    pub fn rate(mut self, probability: f64) -> Self {
        self.rate_ppm = [ppm(probability); 7];
        self
    }

    /// Sets the stall duration in milliseconds.
    #[must_use]
    pub fn stall_ms(mut self, ms: u64) -> Self {
        self.stall_ms = ms;
        self
    }

    /// Freezes the spec into a shareable plan.
    pub fn build(self) -> FaultPlan {
        if self.rate_ppm.iter().all(|&r| r == 0) {
            return FaultPlan::disabled();
        }
        FaultPlan {
            inner: Some(Arc::new(Inner {
                seed: self.seed,
                rate_ppm: self.rate_ppm,
                stall_ms: self.stall_ms,
                seq: Default::default(),
                injected: Default::default(),
            })),
        }
    }
}

fn ppm(probability: f64) -> u32 {
    (probability.clamp(0.0, 1.0) * 1_000_000.0) as u32
}

#[derive(Debug, Default)]
struct Inner {
    seed: u64,
    rate_ppm: [u32; 7],
    stall_ms: u64,
    seq: [AtomicU64; 7],
    injected: [AtomicU64; 7],
}

/// A frozen, shareable fault-injection plan. Cloning shares the per-site
/// sequence counters, so all holders draw from the same deterministic
/// streams. The default plan is disabled and costs one branch per check.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    inner: Option<Arc<Inner>>,
}

impl FaultPlan {
    /// The no-faults plan (production default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Builds a plan from the `RTT_FAULTS` environment variable, or the
    /// disabled plan when it is unset/empty.
    ///
    /// Spec syntax (comma- or space-separated `key=value`):
    /// `RTT_FAULTS="seed=42,rate=0.05,stall_ms=20,modes=short_read|stall"`.
    /// `modes=all` enables every mode. Unknown keys and malformed values
    /// are ignored (a fault layer must never take the daemon down).
    pub fn from_env() -> Self {
        match std::env::var("RTT_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec),
            _ => Self::disabled(),
        }
    }

    /// Parses the `RTT_FAULTS` spec syntax (see [`Self::from_env`]).
    pub fn parse(spec: &str) -> Self {
        let mut seed = 0u64;
        let mut rate = 0.05f64;
        let mut stall = 25u64;
        let mut modes: Vec<FaultMode> = Vec::new();
        for part in spec.split([',', ' ']).filter(|p| !p.is_empty()) {
            let Some((key, value)) = part.split_once('=') else { continue };
            match key.trim() {
                "seed" => seed = value.trim().parse().unwrap_or(seed),
                "rate" => rate = value.trim().parse().unwrap_or(rate),
                "stall_ms" => stall = value.trim().parse().unwrap_or(stall),
                "modes" => {
                    if value.trim() == "all" {
                        modes.extend(ALL_MODES);
                    } else {
                        modes.extend(
                            value.split('|').filter_map(|m| FaultMode::from_name(m.trim())),
                        );
                    }
                }
                _ => {}
            }
        }
        let mut out = FaultSpec::new(seed).stall_ms(stall);
        for m in modes {
            out = out.mode(m, rate);
        }
        out.build()
    }

    /// `true` when any mode can fire.
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Draws the next decision for `mode` from its deterministic stream;
    /// tallies an injection when it fires.
    pub fn decide(&self, mode: FaultMode) -> bool {
        let Some(inner) = &self.inner else { return false };
        let i = mode.index();
        let rate = inner.rate_ppm[i];
        if rate == 0 {
            return false;
        }
        let n = inner.seq[i].fetch_add(1, Ordering::Relaxed);
        let key = inner
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((i as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(n);
        let fire = (splitmix64(key) % 1_000_000) < u64::from(rate);
        if fire {
            inner.injected[i].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// The configured stall duration (0 when disabled).
    pub fn stall_ms(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.stall_ms)
    }

    /// Sleeps for the stall duration if the stall stream fires.
    pub fn maybe_stall(&self) {
        if self.decide(FaultMode::Stall) {
            std::thread::sleep(std::time::Duration::from_millis(self.stall_ms()));
        }
    }

    /// Times each mode has fired, in [`ALL_MODES`] order.
    pub fn injected_counts(&self) -> [(FaultMode, u64); 7] {
        let mut out = [(FaultMode::ShortRead, 0); 7];
        for (slot, mode) in out.iter_mut().zip(ALL_MODES) {
            let n =
                self.inner.as_ref().map_or(0, |i| i.injected[mode.index()].load(Ordering::Relaxed));
            *slot = (mode, n);
        }
        out
    }

    /// Total injections across every mode.
    pub fn injected_total(&self) -> u64 {
        self.injected_counts().iter().map(|&(_, n)| n).sum()
    }

    /// Applies the `CorruptReload` stream to freshly read model-file
    /// bytes: when it fires, the bytes come back truncated (even draws)
    /// or bit-flipped (odd draws) at a seed-determined position.
    pub fn corrupt_reload(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        if !self.decide(FaultMode::CorruptReload) || bytes.is_empty() {
            return bytes;
        }
        let Some(inner) = &self.inner else { return bytes };
        let roll = splitmix64(inner.seed.wrapping_add(bytes.len() as u64));
        let pos = (roll >> 8) as usize % bytes.len();
        if roll & 1 == 0 {
            bytes.truncate(pos);
        } else {
            bytes[pos] ^= 0x20;
        }
        bytes
    }

    /// Faulted socket read: may stall, report a simulated disconnect
    /// (clean EOF), or truncate the read to one byte.
    pub fn read(&self, stream: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
        self.maybe_stall();
        if self.decide(FaultMode::Disconnect) {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected disconnect"));
        }
        if self.decide(FaultMode::ShortRead) && buf.len() > 1 {
            return stream.read(&mut buf[..1]);
        }
        stream.read(buf)
    }

    /// Faulted socket write: may stall, report a simulated broken pipe,
    /// or accept only a 1-byte prefix. Callers must loop (exactly as they
    /// must for real sockets).
    pub fn write(&self, stream: &mut impl Write, data: &[u8]) -> io::Result<usize> {
        self.maybe_stall();
        if self.decide(FaultMode::Disconnect) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected broken pipe"));
        }
        if self.decide(FaultMode::ShortWrite) && data.len() > 1 {
            return stream.write(&data[..1]);
        }
        stream.write(data)
    }
}

/// SplitMix64 finalizer — the same mixer the offline proptest/rand shims
/// use, chosen for full-avalanche behavior on sequential keys.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        assert!(!plan.active());
        for mode in ALL_MODES {
            for _ in 0..64 {
                assert!(!plan.decide(mode));
            }
        }
        assert_eq!(plan.injected_total(), 0);
    }

    #[test]
    fn decision_streams_are_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let plan = FaultSpec::new(seed).rate(0.3).build();
            (0..256).map(|i| plan.decide(ALL_MODES[i % ALL_MODES.len()])).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8), "different seeds should differ");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultSpec::new(1).mode(FaultMode::QueueFull, 0.25).build();
        let fired = (0..4000).filter(|_| plan.decide(FaultMode::QueueFull)).count();
        assert!((600..1400).contains(&fired), "0.25 rate fired {fired}/4000");
        assert_eq!(plan.injected_total(), fired as u64);
    }

    #[test]
    fn env_spec_parses_modes_and_ignores_garbage() {
        let plan = FaultPlan::parse("seed=9,rate=1.0,modes=queue_full|nonsense,junk,x=");
        assert!(plan.active());
        assert!(plan.decide(FaultMode::QueueFull));
        assert!(!plan.decide(FaultMode::ShortRead), "unlisted mode must stay off");
        assert!(!FaultPlan::parse("").active());
        assert!(!FaultPlan::parse("modes=").active());
    }

    #[test]
    fn corrupt_reload_changes_bytes_deterministically() {
        let plan = FaultSpec::new(3).mode(FaultMode::CorruptReload, 1.0).build();
        let original: Vec<u8> = (0..128u8).collect();
        let a = plan.corrupt_reload(original.clone());
        assert_ne!(a, original);
        let plan2 = FaultSpec::new(3).mode(FaultMode::CorruptReload, 1.0).build();
        let b = plan2.corrupt_reload(original.clone());
        assert_eq!(a, b, "same seed, same draw index, same corruption");
    }

    #[test]
    fn short_read_and_write_truncate_io() {
        let plan = FaultSpec::new(5).mode(FaultMode::ShortRead, 1.0).build();
        let data = [1u8, 2, 3, 4];
        let mut src: &[u8] = &data;
        let mut buf = [0u8; 4];
        let n = plan.read(&mut src, &mut buf).expect("short read");
        assert_eq!(n, 1, "short read must return a sliver");

        let plan = FaultSpec::new(5).mode(FaultMode::ShortWrite, 1.0).build();
        let mut sink = Vec::new();
        let n = plan.write(&mut sink, &data).expect("short write");
        assert_eq!(n, 1);
        assert_eq!(sink, vec![1]);
    }
}
