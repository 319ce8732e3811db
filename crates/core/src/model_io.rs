//! Versioned, self-describing model files.
//!
//! [`TimingModel::save_weights`] produces a raw weight blob that only a
//! model built from the *same* [`ModelConfig`] can interpret. A serving
//! daemon cannot assume that: it hot-reloads whatever bytes are on disk,
//! including files written by an older build, truncated by a crashed
//! writer, or corrupted in transit. This module wraps the raw blob in a
//! container that makes every such failure a typed, recoverable error:
//!
//! ```text
//! magic     b"RTTM"                      (4 bytes)
//! version   u32 le                       (currently 1)
//! config    fixed-width ModelConfig      (see encode_config)
//! paylen    u64 le                       (raw weight-blob length)
//! payload   TimingModel::save_weights()  (paylen bytes)
//! checksum  u64 le                       (FNV-1a over everything above)
//! ```
//!
//! The embedded config makes the file self-describing — [`load_model`]
//! reconstructs the architecture without out-of-band scale flags — and
//! the trailing checksum catches corruption (including truncation) before
//! any of the payload is trusted. Decoding is total: arbitrary bytes map
//! to `Err`, never a panic, and config fields are sanity-capped before a
//! model is constructed so a corrupt width cannot trigger a huge
//! allocation.

use std::fmt;

use rtt_nn::WeightsError;

use crate::{Aggregation, ModelConfig, ModelVariant, TimingModel};

/// File magic: "RTTM" (restructure-timing timing model).
pub const MAGIC: [u8; 4] = *b"RTTM";

/// Current container version.
pub const VERSION: u32 = 1;

/// Sanity cap on config widths (embed/hidden/channel counts). Far above
/// any real configuration, far below anything that could allocate
/// gigabytes from a corrupt field.
const MAX_WIDTH: usize = 1 << 16;

/// Sanity cap on the layout-map grid edge.
const MAX_GRID: usize = 1 << 13;

/// Why a model file failed to load. Every variant leaves the caller's
/// state untouched; a serving daemon maps these onto "keep the old model".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelIoError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The container version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ended before its declared contents.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes left in the file.
        available: usize,
    },
    /// The trailing checksum does not match the contents.
    Checksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed from the contents.
        computed: u64,
    },
    /// A config field decoded to a nonsensical value.
    BadConfig(&'static str),
    /// The weight payload failed to deserialize.
    Weights(WeightsError),
}

impl fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a model file (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported model file version {v}"),
            Self::Truncated { needed, available } => {
                write!(f, "truncated model file: needed {needed} more bytes, {available} left")
            }
            Self::Checksum { stored, computed } => {
                write!(
                    f,
                    "model file checksum mismatch: stored {stored:#x}, computed {computed:#x}"
                )
            }
            Self::BadConfig(what) => write!(f, "corrupt model config: {what}"),
            Self::Weights(e) => write!(f, "corrupt weight payload: {e}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<WeightsError> for ModelIoError {
    fn from(e: WeightsError) -> Self {
        Self::Weights(e)
    }
}

/// FNV-1a over `bytes` (the container's integrity check; not
/// cryptographic, but it reliably catches the truncations and bit flips a
/// crashed writer or fault injection produces).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes a config as fixed-width fields (4 tag bytes, a reserved zero
/// byte, 5 u32 widths, the u64 seed).
fn encode_config(out: &mut Vec<u8>, c: &ModelConfig) {
    out.push(match c.variant {
        ModelVariant::Full => 0,
        ModelVariant::GnnOnly => 1,
        ModelVariant::CnnOnly => 2,
    });
    out.push(match c.aggregation {
        Aggregation::Max => 0,
        Aggregation::Mean => 1,
    });
    out.push(u8::from(c.masking));
    out.push(u8::from(c.residual));
    out.push(0); // reserved, always 0
    for v in [c.embed_dim, c.gnn_hidden, c.cnn_channels, c.grid, c.regressor_hidden] {
        out.extend_from_slice(&(v as u32).to_le_bytes());
    }
    out.extend_from_slice(&c.seed.to_le_bytes());
}

/// Byte length of [`encode_config`]'s output.
const CONFIG_LEN: usize = 5 + 5 * 4 + 8;

/// Decodes [`encode_config`] output, validating every field.
fn decode_config(b: &[u8]) -> Result<ModelConfig, ModelIoError> {
    if b.len() < CONFIG_LEN {
        return Err(ModelIoError::Truncated { needed: CONFIG_LEN, available: b.len() });
    }
    let variant = match b[0] {
        0 => ModelVariant::Full,
        1 => ModelVariant::GnnOnly,
        2 => ModelVariant::CnnOnly,
        _ => return Err(ModelIoError::BadConfig("unknown variant tag")),
    };
    let aggregation = match b[1] {
        0 => Aggregation::Max,
        1 => Aggregation::Mean,
        _ => return Err(ModelIoError::BadConfig("unknown aggregation tag")),
    };
    let flag = |i: usize, what: &'static str| match b[i] {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(ModelIoError::BadConfig(what)),
    };
    if b[4] != 0 {
        return Err(ModelIoError::BadConfig("reserved config byte not 0"));
    }
    let word = |i: usize| -> usize {
        u32::from_le_bytes([b[5 + 4 * i], b[6 + 4 * i], b[7 + 4 * i], b[8 + 4 * i]]) as usize
    };
    let (embed_dim, gnn_hidden, cnn_channels, grid, regressor_hidden) =
        (word(0), word(1), word(2), word(3), word(4));
    for (v, what) in [
        (embed_dim, "embed_dim out of range"),
        (gnn_hidden, "gnn_hidden out of range"),
        (cnn_channels, "cnn_channels out of range"),
        (regressor_hidden, "regressor_hidden out of range"),
    ] {
        if v == 0 || v > MAX_WIDTH {
            return Err(ModelIoError::BadConfig(what));
        }
    }
    if grid == 0 || grid > MAX_GRID || !grid.is_multiple_of(4) {
        return Err(ModelIoError::BadConfig("grid must be a positive multiple of 4"));
    }
    let mut seed = [0u8; 8];
    seed.copy_from_slice(&b[25..33]);
    Ok(ModelConfig {
        variant,
        aggregation,
        masking: flag(2, "masking flag not 0/1")?,
        residual: flag(3, "residual flag not 0/1")?,
        embed_dim,
        gnn_hidden,
        cnn_channels,
        grid,
        regressor_hidden,
        seed: u64::from_le_bytes(seed),
    })
}

/// Serializes a model (config + weights) into the versioned container.
pub fn save_model(model: &TimingModel) -> Vec<u8> {
    let payload = model.save_weights();
    let mut out = Vec::with_capacity(4 + 4 + CONFIG_LEN + 8 + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    encode_config(&mut out, model.config());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Loads a model from [`save_model`] bytes, reconstructing the
/// architecture from the embedded config.
///
/// # Errors
///
/// Returns a [`ModelIoError`] for any malformed input — wrong magic,
/// future version, truncation, checksum mismatch, corrupt config, or a
/// weight payload that does not match the declared architecture. No
/// partial model escapes on error.
pub fn load_model(bytes: &[u8]) -> Result<TimingModel, ModelIoError> {
    let header = 4 + 4 + CONFIG_LEN + 8;
    if bytes.len() < header + 8 {
        return Err(ModelIoError::Truncated { needed: header + 8, available: bytes.len() });
    }
    if bytes[0..4] != MAGIC {
        return Err(ModelIoError::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != VERSION {
        return Err(ModelIoError::UnsupportedVersion(version));
    }
    // Integrity first: nothing after the magic/version probe is trusted
    // until the checksum over everything-but-the-checksum matches.
    let body = &bytes[..bytes.len() - 8];
    let mut stored = [0u8; 8];
    stored.copy_from_slice(&bytes[bytes.len() - 8..]);
    let stored = u64::from_le_bytes(stored);
    let computed = fnv1a(body);
    if stored != computed {
        return Err(ModelIoError::Checksum { stored, computed });
    }
    let config = decode_config(&bytes[8..8 + CONFIG_LEN])?;
    let mut paylen = [0u8; 8];
    paylen.copy_from_slice(&bytes[8 + CONFIG_LEN..header]);
    let paylen = u64::from_le_bytes(paylen) as usize;
    let payload = &body[header..];
    if paylen != payload.len() {
        return Err(ModelIoError::Truncated { needed: paylen, available: payload.len() });
    }
    let mut model = TimingModel::new(config);
    model.load_weights(payload)?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> TimingModel {
        TimingModel::new(ModelConfig::tiny())
    }

    #[test]
    fn roundtrip_preserves_config_and_weights() {
        let model = tiny_model();
        let bytes = save_model(&model);
        let restored = load_model(&bytes).expect("roundtrip");
        assert_eq!(restored.config(), model.config());
        assert_eq!(restored.save_weights(), model.save_weights());
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = save_model(&tiny_model());
        // Exhaustive head truncations of the header region, then sampled
        // truncations through the payload (stride keeps the test fast).
        for cut in (0..64).chain((64..bytes.len()).step_by(97)) {
            assert!(load_model(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let bytes = save_model(&tiny_model());
        for pos in (0..bytes.len()).step_by(131) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(load_model(&bad).is_err(), "bit flip at {pos} accepted");
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let bytes = save_model(&tiny_model());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(load_model(&bad).unwrap_err(), ModelIoError::BadMagic);
        let mut bad = bytes;
        bad[4] = 99;
        // Re-seal so only the version is wrong (the checksum would
        // otherwise mask it).
        let n = bad.len();
        let sum = fnv1a(&bad[..n - 8]);
        bad[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(load_model(&bad).unwrap_err(), ModelIoError::UnsupportedVersion(99));
    }

    #[test]
    fn corrupt_config_fields_are_rejected_before_allocation() {
        // Blow up embed_dim (config word 0 starts at offset 8 + 5), or set
        // the reserved byte at offset 8 + 4.
        let cases: [(usize, &[u8], &str); 2] = [
            (13, &u32::MAX.to_le_bytes(), "embed_dim out of range"),
            (12, &[1], "reserved config byte not 0"),
        ];
        for (at, patch, what) in cases {
            let mut bad = save_model(&tiny_model());
            bad[at..at + patch.len()].copy_from_slice(patch);
            let n = bad.len();
            let sum = fnv1a(&bad[..n - 8]);
            bad[n - 8..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(load_model(&bad).unwrap_err(), ModelIoError::BadConfig(what));
        }
    }

    #[test]
    fn arbitrary_garbage_never_panics() {
        // Deterministic pseudo-garbage at a few lengths, including ones
        // long enough to pass the length probe.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for len in [0usize, 3, 16, 64, 256, 4096] {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = (x & 0xff) as u8;
            }
            assert!(load_model(&buf).is_err());
        }
    }
}
