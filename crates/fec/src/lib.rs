//! # pbpair-fec — systematic block erasure codes with op accounting
//!
//! PBPAIR (ICDCS 2005) spends its whole resilience budget on intra
//! refresh; its closing section points at "cooperation with error control
//! channel coding" as the open direction. This crate supplies that half
//! of the loop: a family of *systematic* block erasure codes over
//! equal-length byte shards — the existing XOR group parity, Reed-Solomon
//! over GF(256) and a seeded LT fountain — behind one [`FecCodec`] trait,
//! so the serving layer can trade
//! `Intra_Th` bits against parity bits at runtime.
//!
//! Everything is deterministic and `std`-only: the LT generator matrix is
//! a pure function of its seed, Reed-Solomon matrices are compile-pure
//! Vandermonde algebra, and every codec reports the arithmetic it
//! performed in a [`FecOps`] ledger so `pbpair-energy` can price FEC work
//! exactly like encoder work.
//!
//! ## Shard model
//!
//! A *block* is `k` data shards plus `r` parity shards, all the same
//! length. [`FecCodec::encode`] maps the `k` data shards to `r` parity
//! shards; [`FecCodec::decode`] takes the `k + r` shard slots with
//! erasures marked as `None` and reconstructs the missing *data* shards
//! when the surviving set permits. Packetization, padding, and length
//! bookkeeping live one layer up (`pbpair-netsim`'s `FecProtector`).
//!
//! ```rust
//! use pbpair_fec::{FecCodec, FecOps, FecSpec};
//!
//! let codec = FecSpec::Rs { k: 4, r: 2 }.build().unwrap();
//! let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
//! let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
//! let mut ops = FecOps::default();
//! let parity = codec.encode(&refs, &mut ops);
//!
//! // Lose two data shards — any two, RS with r = 2 recovers both.
//! let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
//! shards.extend(parity.into_iter().map(Some));
//! shards[1] = None;
//! shards[3] = None;
//! assert!(codec.decode(&mut shards, &mut ops));
//! assert_eq!(shards[1].as_deref(), Some(&data[1][..]));
//! ```

pub mod gf256;
mod lt;
mod rs;
mod xor;

pub use lt::LtCodec;
pub use rs::ReedSolomon;
pub use xor::XorCodec;

use std::ops::{Add, AddAssign, Sub};

/// Arithmetic performed by FEC encode/decode, for energy charging.
///
/// The two work counters mirror the codec families' inner loops: plain
/// byte XOR (XOR, LT) and GF(256) multiply-accumulate
/// (Reed-Solomon). Everything else is bookkeeping the eval layer and
/// telemetry surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FecOps {
    /// Blocks encoded.
    pub blocks_encoded: u64,
    /// Blocks offered to decode with at least one erasure.
    pub blocks_decoded: u64,
    /// Blocks where decode reconstructed at least one missing data shard.
    pub blocks_repaired: u64,
    /// Blocks decode could not complete (erasures beyond capability).
    pub blocks_failed: u64,
    /// Parity bytes produced by encode.
    pub parity_bytes: u64,
    /// Byte-wide XOR-accumulate operations.
    pub xor_bytes: u64,
    /// Byte-wide GF(256) multiply-accumulate operations (two table
    /// lookups plus an add each).
    pub gf_mul_bytes: u64,
    /// k×k matrix inversions performed during decode.
    pub matrix_inversions: u64,
}

impl Add for FecOps {
    type Output = FecOps;
    fn add(self, rhs: FecOps) -> FecOps {
        FecOps {
            blocks_encoded: self.blocks_encoded + rhs.blocks_encoded,
            blocks_decoded: self.blocks_decoded + rhs.blocks_decoded,
            blocks_repaired: self.blocks_repaired + rhs.blocks_repaired,
            blocks_failed: self.blocks_failed + rhs.blocks_failed,
            parity_bytes: self.parity_bytes + rhs.parity_bytes,
            xor_bytes: self.xor_bytes + rhs.xor_bytes,
            gf_mul_bytes: self.gf_mul_bytes + rhs.gf_mul_bytes,
            matrix_inversions: self.matrix_inversions + rhs.matrix_inversions,
        }
    }
}

impl AddAssign for FecOps {
    fn add_assign(&mut self, rhs: FecOps) {
        *self = *self + rhs;
    }
}

impl Sub for FecOps {
    type Output = FecOps;
    fn sub(self, rhs: FecOps) -> FecOps {
        FecOps {
            blocks_encoded: self.blocks_encoded - rhs.blocks_encoded,
            blocks_decoded: self.blocks_decoded - rhs.blocks_decoded,
            blocks_repaired: self.blocks_repaired - rhs.blocks_repaired,
            blocks_failed: self.blocks_failed - rhs.blocks_failed,
            parity_bytes: self.parity_bytes - rhs.parity_bytes,
            xor_bytes: self.xor_bytes - rhs.xor_bytes,
            gf_mul_bytes: self.gf_mul_bytes - rhs.gf_mul_bytes,
            matrix_inversions: self.matrix_inversions - rhs.matrix_inversions,
        }
    }
}

/// A systematic block erasure code over equal-length byte shards.
pub trait FecCodec: Send {
    /// Data shards per block (`k`).
    fn data_shards(&self) -> usize;

    /// Parity shards per block (`r`).
    fn parity_shards(&self) -> usize;

    /// Stable short name for reports (`"xor"`, `"rs"`, `"lt"`).
    fn name(&self) -> &'static str;

    /// Encodes one block: `data` holds exactly `k` shards of one common
    /// length; returns the `r` parity shards at that same length.
    /// Arithmetic is charged to `ops`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k` or the shard lengths differ.
    fn encode(&self, data: &[&[u8]], ops: &mut FecOps) -> Vec<Vec<u8>>;

    /// Decodes one block in place: `shards` holds the `k + r` slots in
    /// systematic order (data first), erasures as `None`, every present
    /// shard at one common length. Reconstructs every missing *data*
    /// shard when the survivors permit and returns `true`; returns
    /// `false` (leaving `shards` with its erasures) when they do not.
    /// Arithmetic is charged to `ops`.
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != k + r` or present shard lengths differ.
    fn decode(&self, shards: &mut [Option<Vec<u8>>], ops: &mut FecOps) -> bool;

    /// Total shards per block (`n = k + r`).
    fn total_shards(&self) -> usize {
        self.data_shards() + self.parity_shards()
    }
}

/// Checks the common encode precondition; returns the shard length.
pub(crate) fn check_encode(data: &[&[u8]], k: usize) -> usize {
    assert_eq!(data.len(), k, "encode expects exactly k data shards");
    let len = data[0].len();
    assert!(
        data.iter().all(|s| s.len() == len),
        "data shards must share one length"
    );
    len
}

/// Checks the common decode precondition; returns the shard length if
/// any shard is present.
pub(crate) fn check_decode(shards: &[Option<Vec<u8>>], n: usize) -> Option<usize> {
    assert_eq!(shards.len(), n, "decode expects k + r shard slots");
    let len = shards.iter().flatten().map(Vec::len).next()?;
    assert!(
        shards.iter().flatten().all(|s| s.len() == len),
        "present shards must share one length"
    );
    Some(len)
}

/// Plain-value description of a codec configuration — what session and
/// fleet configs carry, and what the redundancy controller re-rates at
/// GOP boundaries via [`FecSpec::with_parity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FecSpec {
    /// Single-parity XOR over groups of `k` (recovers 1 erasure/block).
    Xor {
        /// Data shards per parity shard.
        k: usize,
    },
    /// Reed-Solomon over GF(256): recovers any `r` erasures per block.
    Rs {
        /// Data shards per block.
        k: usize,
        /// Parity shards per block.
        r: usize,
    },
    /// LT fountain with robust-soliton repair degrees; recovers most
    /// erasure patterns of weight below `r` (fountain overhead applies).
    Lt {
        /// Data shards per block.
        k: usize,
        /// Repair shards per block.
        r: usize,
        /// Seed of the repair-equation generator.
        seed: u64,
    },
}

impl FecSpec {
    /// Data shards per block.
    pub fn k(&self) -> usize {
        match *self {
            FecSpec::Xor { k } | FecSpec::Rs { k, .. } | FecSpec::Lt { k, .. } => k,
        }
    }

    /// Parity shards per block.
    pub fn r(&self) -> usize {
        match *self {
            FecSpec::Xor { .. } => 1,
            FecSpec::Rs { r, .. } | FecSpec::Lt { r, .. } => r,
        }
    }

    /// Total shards per block.
    pub fn n(&self) -> usize {
        self.k() + self.r()
    }

    /// The same family re-rated to `r` parity shards (XOR is fixed at 1).
    pub fn with_parity(&self, r: usize) -> FecSpec {
        match *self {
            FecSpec::Xor { k } => FecSpec::Xor { k },
            FecSpec::Rs { k, .. } => FecSpec::Rs { k, r },
            FecSpec::Lt { k, seed, .. } => FecSpec::Lt { k, r, seed },
        }
    }

    /// Stable label for reports and digests, e.g. `"rs-8.2"`.
    pub fn label(&self) -> String {
        match *self {
            FecSpec::Xor { k } => format!("xor-{k}"),
            FecSpec::Rs { k, r } => format!("rs-{k}.{r}"),
            FecSpec::Lt { k, r, .. } => format!("lt-{k}.{r}"),
        }
    }

    /// Validates the parameters without building the codec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let (k, r) = (self.k(), self.r());
        if k == 0 {
            return Err("fec: k must be positive".into());
        }
        if r == 0 {
            return Err("fec: r must be positive".into());
        }
        if k.saturating_add(r) > 255 {
            return Err(format!(
                "fec: k + r = {k} + {r} exceeds GF(256) block bound"
            ));
        }
        Ok(())
    }

    /// Builds the codec this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates [`FecSpec::validate`] failures.
    pub fn build(&self) -> Result<Box<dyn FecCodec>, String> {
        self.validate()?;
        Ok(match *self {
            FecSpec::Xor { k } => Box::new(XorCodec::new(k)),
            FecSpec::Rs { k, r } => Box::new(ReedSolomon::new(k, r)?),
            FecSpec::Lt { k, r, seed } => Box::new(LtCodec::new(k, r, seed)),
        })
    }
}

/// SplitMix64 finalizer — the workspace-standard seed decorrelator, used
/// here by the LT repair-equation generator.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// XORs `src` into `dst` byte-wise and charges the work.
pub(crate) fn xor_into(dst: &mut [u8], src: &[u8], ops: &mut FecOps) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
    ops.xor_bytes += dst.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_accessors_and_labels() {
        let specs = [
            (FecSpec::Xor { k: 4 }, 4, 1, "xor-4"),
            (FecSpec::Rs { k: 8, r: 2 }, 8, 2, "rs-8.2"),
            (
                FecSpec::Lt {
                    k: 8,
                    r: 3,
                    seed: 7,
                },
                8,
                3,
                "lt-8.3",
            ),
        ];
        for (spec, k, r, label) in specs {
            assert_eq!(spec.k(), k);
            assert_eq!(spec.r(), r);
            assert_eq!(spec.n(), k + r);
            assert_eq!(spec.label(), label);
            assert!(spec.validate().is_ok());
            let codec = spec.build().unwrap();
            assert_eq!(codec.data_shards(), k);
            assert_eq!(codec.parity_shards(), r);
            assert_eq!(codec.total_shards(), k + r);
        }
    }

    #[test]
    fn with_parity_rerates_every_family() {
        assert_eq!(
            FecSpec::Rs { k: 8, r: 2 }.with_parity(4),
            FecSpec::Rs { k: 8, r: 4 }
        );
        assert_eq!(
            FecSpec::Lt {
                k: 8,
                r: 2,
                seed: 9
            }
            .with_parity(1),
            FecSpec::Lt {
                k: 8,
                r: 1,
                seed: 9
            }
        );
        // XOR is structurally single-parity.
        assert_eq!(FecSpec::Xor { k: 4 }.with_parity(3), FecSpec::Xor { k: 4 });
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(FecSpec::Xor { k: 0 }.validate().is_err());
        assert!(FecSpec::Rs { k: 8, r: 0 }.validate().is_err());
        assert!(FecSpec::Rs { k: 250, r: 6 }.validate().is_err());
        assert!(FecSpec::Lt {
            k: 0,
            r: 1,
            seed: 0
        }
        .build()
        .is_err());
    }

    #[test]
    fn ops_arithmetic() {
        let a = FecOps {
            blocks_encoded: 2,
            parity_bytes: 100,
            xor_bytes: 50,
            ..FecOps::default()
        };
        let b = FecOps {
            blocks_encoded: 1,
            parity_bytes: 30,
            gf_mul_bytes: 7,
            ..FecOps::default()
        };
        let sum = a + b;
        assert_eq!(sum.blocks_encoded, 3);
        assert_eq!(sum.parity_bytes, 130);
        assert_eq!(sum.gf_mul_bytes, 7);
        assert_eq!(sum - b, a);
        let mut acc = a;
        acc += b;
        assert_eq!(acc, sum);
    }
}
