//! Versioned, checksummed on-disk snapshots of programmed PIM models.
//!
//! The expensive part of bringing a replica up is deciding what to
//! program: quantization, then the calibration-plan search (Algorithm 1).
//! A [`ModelSnapshot`] captures the *result* — the quantized network, the
//! architecture, and the per-layer ADC plan — so a fresh process skips
//! both. The programmed crossbar state (bit planes, skip masks, packed
//! LUTs) is a deterministic function of those three parts, so it is not
//! stored: [`ModelSnapshot::restore`] re-runs the program stage, about a
//! millisecond for the benchmark MLP, and the restored engine is
//! bit-identical by construction.
//!
//! # File format
//!
//! A snapshot file is a small binary envelope around a self-describing
//! JSON payload:
//!
//! ```text
//! offset  size  field
//!      0     8  magic, b"TRQSTORE"
//!      8     4  format version, u32 LE (currently 1)
//!     12     8  payload length in bytes, u64 LE
//!     20     8  FNV-1a-64 checksum of the payload, u64 LE
//!     28     n  payload: ModelSnapshot as JSON
//! ```
//!
//! Every failure mode maps to a typed [`StoreError`]: wrong magic,
//! unknown version, truncated payload, checksum mismatch, undecodable or
//! inconsistent payload. Decoding and restoring never panic on hostile
//! bytes, and restore refuses any snapshot whose programmed arrays would
//! take more than [`MAX_PROGRAMMED_BYTES`] before allocating them, or
//! whose engine would run more than [`MAX_THREADS`] threads.
//! Payloads written while snapshots still carried a `programming` array
//! decode as before: the decoder skips the field.
//!
//! # Generations
//!
//! [`save_generation`] writes numbered files (`gen-000001.trqs`, …) into a
//! directory, each via a temp-file + atomic rename so a crash mid-write
//! never leaves a half snapshot under a live generation name.
//! [`load_latest`] picks the highest generation present, which makes
//! "re-program, snapshot, restart replicas" a safe rolling upgrade.
//!
//! ```no_run
//! use trq_store::{load_latest, save_generation, ModelSnapshot};
//! # fn demo(qnet: &trq_nn::QuantizedNetwork, engine: &trq_core::pim::PimMvm)
//! # -> Result<(), trq_store::StoreError> {
//! let snap = ModelSnapshot::capture("lenet", qnet, engine)?;
//! save_generation("snapshots/lenet", &snap)?;
//! // ... later, in a fresh process:
//! let (generation, snap) = load_latest("snapshots/lenet")?;
//! let (qnet, engine) = snap.restore()?;
//! # let _ = (generation, qnet, engine); Ok(()) }
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};
use trq_core::arch::{ArchConfig, MAX_THREADS};
use trq_core::pim::{AdcScheme, PimMvm};
use trq_nn::QuantizedNetwork;

/// Leading bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"TRQSTORE";
/// The envelope format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;
/// Fixed envelope header size: magic + version + length + checksum.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;
/// Most heap bytes [`ModelSnapshot::restore`] lets the program stage
/// allocate ([`PimMvm::programmed_bytes`] summed over the layers). A
/// depth-1 layer on 4096-row arrays costs 8 KiB of planes per weight
/// code, so without a cap a 1 MB payload could ask for about 4 GB.
pub const MAX_PROGRAMMED_BYTES: u64 = 256 << 20;

const GEN_PREFIX: &str = "gen-";
const GEN_SUFFIX: &str = ".trqs";

/// Errors from snapshot encoding, decoding, and file management.
///
/// Each variant names the failure precisely so callers can distinguish
/// "no snapshot yet" (first boot) from "snapshot damaged" (refuse to
/// serve) without string matching.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The envelope declares a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Highest version this build supports.
        supported: u32,
    },
    /// The file ends before the length declared in the header.
    Truncated {
        /// Bytes the header promised (header + payload).
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload bytes do not hash to the checksum in the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        got: u64,
    },
    /// The payload is well-framed but not a decodable [`ModelSnapshot`].
    Decode {
        /// What the decoder rejected.
        reason: String,
    },
    /// The snapshot could not be serialized (e.g. a non-finite float).
    Encode {
        /// What the encoder rejected.
        reason: String,
    },
    /// The snapshot decoded but cannot be restored: its parts disagree
    /// with each other, a parameter bypassed its constructor's checks,
    /// or programming it would exceed [`MAX_PROGRAMMED_BYTES`]. Capture
    /// reports an engine it cannot snapshot faithfully the same way.
    Invalid {
        /// Which consistency check failed.
        reason: String,
    },
    /// No generation file exists in the directory.
    NoSnapshot {
        /// Directory that was searched.
        dir: PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            StoreError::BadMagic => write!(f, "not a TRQ snapshot (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => {
                write!(f, "snapshot format v{found} is newer than supported v{supported}")
            }
            StoreError::Truncated { expected, got } => {
                write!(f, "snapshot truncated: {got} of {expected} bytes")
            }
            StoreError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot checksum mismatch: header {expected:#018x}, payload {got:#018x}"
                )
            }
            StoreError::Decode { reason } => write!(f, "snapshot payload undecodable: {reason}"),
            StoreError::Encode { reason } => write!(f, "snapshot unencodable: {reason}"),
            StoreError::Invalid { reason } => write!(f, "snapshot inconsistent: {reason}"),
            StoreError::NoSnapshot { dir } => {
                write!(f, "no snapshot generations in {}", dir.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io { path: path.to_path_buf(), source }
}

/// FNV-1a 64-bit hash — the envelope checksum. Deliberately simple and
/// dependency-free; this guards against torn writes and bit rot, not
/// adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything needed to reconstruct a serving-ready model byte-for-byte:
/// the quantized network, the architecture it is programmed for, and the
/// per-layer ADC plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSnapshot {
    /// Human-readable model name (carried into registry listings).
    pub name: String,
    /// Architecture the model is programmed for.
    pub arch: ArchConfig,
    /// Per-layer ADC scheme, indexed by `mvm_index`.
    pub plan: Vec<AdcScheme>,
    /// The quantized network (weights, scales, biases, geometry).
    pub qnet: QuantizedNetwork,
}

impl ModelSnapshot {
    /// Captures a snapshot of `engine` as programmed for `qnet`: one plan
    /// entry per layer of `qnet`, the layers past the end of the engine's
    /// plan recorded as the [`AdcScheme::Ideal`] they run.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Invalid`] when the engine emulates device
    /// noise: a snapshot restores an ideal device, so it would silently
    /// serve different numbers.
    pub fn capture(
        name: &str,
        qnet: &QuantizedNetwork,
        engine: &PimMvm,
    ) -> Result<Self, StoreError> {
        if let Some(noise) = engine.device_noise() {
            return Err(StoreError::Invalid {
                reason: format!("cannot snapshot an engine with device noise {noise:?}"),
            });
        }
        Ok(ModelSnapshot {
            name: name.to_string(),
            arch: *engine.arch(),
            plan: (0..qnet.layers().len()).map(|l| engine.scheme_for(l)).collect(),
            qnet: qnet.clone(),
        })
    }

    /// Rebuilds the quantized network and an engine with every layer
    /// programmed, exactly as [`PimMvm::program_layer`] programs a fresh
    /// engine. The returned engine produces bit-identical outputs and
    /// [`trq_core::pim::PimStats`] ledgers to the engine the snapshot was
    /// captured from.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Invalid`], before programming allocates
    /// anything, when:
    /// - the architecture's crossbar geometry fails its `validate`, its
    ///   weight or input bits lie outside `1..=8`, it asks for more than
    ///   [`MAX_THREADS`] engine threads, or it selects a kernel tier this
    ///   host cannot run;
    /// - the network's largest activation code
    ///   ([`QuantizedNetwork::act_qmax`]) needs more than the
    ///   architecture's input bits;
    /// - the plan does not name one scheme per layer, or a scheme fails
    ///   [`AdcScheme::validate`];
    /// - a layer's index is not its position, or its weight codes do not
    ///   fill `depth × outputs`;
    /// - the programmed arrays would take more than
    ///   [`MAX_PROGRAMMED_BYTES`].
    pub fn restore(&self) -> Result<(QuantizedNetwork, PimMvm), StoreError> {
        let invalid = |reason: String| Err(StoreError::Invalid { reason });
        let arch = &self.arch;
        if let Err(e) = arch.xbar.validate() {
            return invalid(e.to_string());
        }
        for (what, bits) in [("weight", arch.weight_bits), ("input", arch.input_bits)] {
            if !(1..=8).contains(&bits) {
                return invalid(format!("{what} bits {bits} not in 1..=8"));
            }
        }
        if arch.exec.threads > MAX_THREADS {
            return invalid(format!(
                "{} engine threads exceed the bound of {MAX_THREADS}",
                arch.exec.threads
            ));
        }
        let qmax = self.qnet.act_qmax();
        if u64::from(qmax) >= 1 << arch.input_bits {
            return invalid(format!(
                "activation codes up to {qmax} do not fit {} input bits",
                arch.input_bits
            ));
        }
        let layers = self.qnet.layers();
        if self.plan.len() != layers.len() {
            return invalid(format!(
                "plan covers {} layers, network has {}",
                self.plan.len(),
                layers.len()
            ));
        }
        let mut footprint = 0u64;
        for (slot, (layer, scheme)) in layers.iter().zip(&self.plan).enumerate() {
            let info = &layer.info;
            if info.mvm_index != slot {
                return invalid(format!("layer {slot} claims index {}", info.mvm_index));
            }
            if info.depth.checked_mul(info.outputs) != Some(layer.weights_q.len()) {
                return invalid(format!(
                    "layer {slot} has {} weight codes for depth {} x {} outputs",
                    layer.weights_q.len(),
                    info.depth,
                    info.outputs
                ));
            }
            if let Err(reason) = scheme.validate(arch) {
                return invalid(format!("layer {slot} scheme {scheme:?}: {reason}"));
            }
            let Some(total) = PimMvm::programmed_bytes(arch, info.depth, info.outputs)
                .and_then(|bytes| footprint.checked_add(bytes))
                .filter(|&total| total <= MAX_PROGRAMMED_BYTES)
            else {
                return invalid(format!(
                    "programming layers 0..={slot} takes more than {MAX_PROGRAMMED_BYTES} bytes"
                ));
            };
            footprint = total;
        }
        let mut engine = PimMvm::try_new(*arch, self.plan.clone())
            .map_err(|e| StoreError::Invalid { reason: e.to_string() })?;
        for layer in layers {
            engine.program_layer(&layer.info, &layer.weights_q);
        }
        Ok((self.qnet.clone(), engine))
    }
}

/// Serializes a snapshot into the framed envelope (header + JSON payload).
///
/// # Errors
///
/// Returns [`StoreError::Encode`] when the payload cannot be rendered
/// (e.g. a non-finite float in the network).
pub fn encode_snapshot(snapshot: &ModelSnapshot) -> Result<Vec<u8>, StoreError> {
    let payload = serde_json::to_string(snapshot)
        .map_err(|e| StoreError::Encode { reason: e.to_string() })?;
    let payload = payload.into_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Parses bytes produced by [`encode_snapshot`], verifying magic,
/// version, declared length, and checksum before touching the payload.
///
/// # Errors
///
/// Returns the [`StoreError`] variant naming the first framing or
/// decoding failure; hostile or damaged bytes never panic.
pub fn decode_snapshot(bytes: &[u8]) -> Result<ModelSnapshot, StoreError> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        return Err(StoreError::Truncated { expected: HEADER_LEN as u64, got: bytes.len() as u64 });
    }
    if bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    // lint: allow(unwrap): literal-width slices — try_into cannot fail
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
    }
    // lint: allow(unwrap): literal-width slices — try_into cannot fail
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    // lint: allow(unwrap): literal-width slices — try_into cannot fail
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    // a hostile length can exceed every file and wrap the sum: checked,
    // so it is a truncation like any other
    let got_len = bytes.len() as u64;
    let Some(end) = (HEADER_LEN as u64).checked_add(payload_len).filter(|&end| end <= got_len)
    else {
        let expected = (HEADER_LEN as u64).saturating_add(payload_len);
        return Err(StoreError::Truncated { expected, got: got_len });
    };
    // `end <= bytes.len()`, so it fits a usize
    let payload = &bytes[HEADER_LEN..end as usize];
    let got = fnv1a64(payload);
    if got != checksum {
        return Err(StoreError::ChecksumMismatch { expected: checksum, got });
    }
    let text =
        std::str::from_utf8(payload).map_err(|e| StoreError::Decode { reason: e.to_string() })?;
    serde_json::from_str(text).map_err(|e| StoreError::Decode { reason: e.to_string() })
}

/// Writes a snapshot to `path` via a sibling temp file + atomic rename.
///
/// # Errors
///
/// Returns [`StoreError::Encode`] or [`StoreError::Io`].
pub fn save_snapshot(path: impl AsRef<Path>, snapshot: &ModelSnapshot) -> Result<(), StoreError> {
    let path = path.as_ref();
    let bytes = encode_snapshot(snapshot)?;
    let mut tmp = path.to_path_buf();
    let mut name = tmp.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    tmp.set_file_name(name);
    std::fs::write(&tmp, &bytes).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Reads and decodes a snapshot from `path`.
///
/// # Errors
///
/// Returns [`StoreError::Io`] when the file is unreadable, otherwise any
/// [`decode_snapshot`] error.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<ModelSnapshot, StoreError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    decode_snapshot(&bytes)
}

fn parse_generation(file_name: &str) -> Option<u64> {
    file_name.strip_prefix(GEN_PREFIX)?.strip_suffix(GEN_SUFFIX)?.parse::<u64>().ok()
}

fn generation_file(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("{GEN_PREFIX}{generation:06}{GEN_SUFFIX}"))
}

/// Finds the highest snapshot generation in `dir`, if any.
///
/// Non-generation files are ignored; a missing directory reads as empty.
///
/// # Errors
///
/// Returns [`StoreError::Io`] only for errors other than the directory
/// not existing.
pub fn latest_generation(dir: impl AsRef<Path>) -> Result<Option<(u64, PathBuf)>, StoreError> {
    let dir = dir.as_ref();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(dir, e)),
    };
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let Some(generation) = name.to_str().and_then(parse_generation) else { continue };
        if best.as_ref().is_none_or(|(g, _)| generation > *g) {
            best = Some((generation, entry.path()));
        }
    }
    Ok(best)
}

/// Writes `snapshot` as the next generation in `dir` (creating the
/// directory if needed) and returns the generation number it received.
///
/// The write goes through a temp file + rename, so readers concurrently
/// calling [`load_latest`] see either the previous generation or the
/// complete new one — never a torn file.
///
/// # Errors
///
/// Returns [`StoreError::Encode`] or [`StoreError::Io`].
pub fn save_generation(dir: impl AsRef<Path>, snapshot: &ModelSnapshot) -> Result<u64, StoreError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let next = latest_generation(dir)?.map_or(1, |(g, _)| g + 1);
    save_snapshot(generation_file(dir, next), snapshot)?;
    Ok(next)
}

/// Loads the highest-numbered snapshot generation from `dir`.
///
/// # Errors
///
/// Returns [`StoreError::NoSnapshot`] when the directory holds no
/// generation files, otherwise any [`load_snapshot`] error.
pub fn load_latest(dir: impl AsRef<Path>) -> Result<(u64, ModelSnapshot), StoreError> {
    let dir = dir.as_ref();
    let Some((generation, path)) = latest_generation(dir)? else {
        return Err(StoreError::NoSnapshot { dir: dir.to_path_buf() });
    };
    Ok((generation, load_snapshot(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn generation_names_round_trip_and_sort() {
        assert_eq!(parse_generation("gen-000001.trqs"), Some(1));
        assert_eq!(parse_generation("gen-1000000.trqs"), Some(1_000_000));
        assert_eq!(parse_generation("gen-.trqs"), None);
        assert_eq!(parse_generation("gen-12.json"), None);
        assert_eq!(parse_generation("snapshot.trqs"), None);
        let dir = Path::new("/tmp/x");
        assert_eq!(generation_file(dir, 7), dir.join("gen-000007.trqs"));
    }

    #[test]
    fn short_input_is_truncated_unless_magic_is_wrong() {
        assert!(matches!(decode_snapshot(b"TRQSTOR"), Err(StoreError::Truncated { .. })));
        assert!(matches!(decode_snapshot(b"NOTASNAP"), Err(StoreError::BadMagic)));
        assert!(matches!(decode_snapshot(b""), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn payload_length_that_wraps_the_end_offset_is_truncated() {
        // payload_len = 2^64 - 28, so HEADER_LEN + payload_len wraps to 0
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX - 27).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"{}");
        match decode_snapshot(&bytes) {
            Err(StoreError::Truncated { expected: u64::MAX, got: 30 }) => {}
            other => panic!("expected a typed truncation, got {other:?}"),
        }
    }

    #[test]
    fn nesting_bomb_payload_is_a_decode_error() {
        // a well-framed envelope (valid header and checksum) around 10^6
        // `[`: the parser must refuse it at its depth limit, not overflow
        // the stack
        let payload = "[".repeat(1_000_000).into_bytes();
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match decode_snapshot(&bytes) {
            Err(StoreError::Decode { reason }) => assert!(reason.contains("nesting"), "{reason}"),
            other => panic!("expected a typed decode error, got {other:?}"),
        }
    }
}
