//! Packet-level forward error correction over `pbpair-fec` codecs.
//!
//! The paper closes with "cooperation with error control channel coding
//! can be another interesting research topic since PBPAIR is independent
//! from any other ... channel coding" mechanisms. This module is that
//! cooperation's transport half: [`FecProtector`] adapts any
//! [`pbpair_fec::FecCodec`] to the RTP fragment stream — data fragments
//! are chunked into blocks of `k`, lifted into equal-length shards, and
//! `r` parity packets per block ride along; on the receive side surviving
//! fragments plus parity reconstruct what the channel erased, with every
//! XOR and GF(256) multiply charged to a [`FecOps`] ledger for energy
//! accounting.
//!
//! ## Shard lift
//!
//! Fragments inside a block differ in length (the tail fragment is
//! short), while erasure codes want equal-length symbols. Each fragment
//! becomes the shard `[len: u16 BE][payload][zero pad]`, sized to the
//! longest member of its block; slots past the frame's last fragment are
//! virtual all-zero shards that are never transmitted and never lost.
//! Parity packets carry their shard verbatim, so the receiver learns the
//! shard length from any surviving parity packet. A surviving parity
//! packet of any other length (corruption can shorten or pad a payload)
//! is treated as erased.

use crate::packet::Packet;
use bytes::Bytes;
use pbpair_fec::{FecCodec, FecOps, FecSpec};

/// Packet adapter for a [`FecCodec`]: protects a frame's fragments with
/// per-block parity packets and repairs erasures on receive.
pub struct FecProtector {
    spec: FecSpec,
    codec: Box<dyn FecCodec>,
}

impl std::fmt::Debug for FecProtector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FecProtector")
            .field("spec", &self.spec)
            .finish()
    }
}

/// Result of [`FecProtector::recover`]: the data packets that survived
/// or were rebuilt, and whether that is the complete frame.
#[derive(Debug, Clone)]
pub struct FecRecovery {
    /// `true` when every data fragment is present or repaired.
    pub complete: bool,
    /// Present and repaired data packets in fragment order (parity
    /// stripped). On an incomplete frame this still carries every
    /// partial repair for damage-tolerant reassembly.
    pub data: Vec<Packet>,
}

impl FecProtector {
    /// Builds a protector for the given codec spec.
    ///
    /// # Errors
    ///
    /// Propagates [`FecSpec::validate`] failures.
    pub fn new(spec: FecSpec) -> Result<FecProtector, String> {
        let codec = spec.build()?;
        Ok(FecProtector { spec, codec })
    }

    /// The codec spec this protector runs.
    pub fn spec(&self) -> FecSpec {
        self.spec
    }

    /// Data shards per block.
    pub fn k(&self) -> usize {
        self.codec.data_shards()
    }

    /// Parity shards per block.
    pub fn r(&self) -> usize {
        self.codec.parity_shards()
    }

    /// Protects one frame's data fragments: returns the data packets
    /// with `r` parity packets appended after each block of `k`. Parity
    /// packet `pi` of block `b` carries `fragment_index =
    /// fragment_count + b·r + pi` and `parity = true`; encode work and
    /// parity bytes are charged to `ops`.
    ///
    /// # Panics
    ///
    /// Panics if `packets` is empty or contains parity packets.
    pub fn protect(&self, packets: &[Packet], ops: &mut FecOps) -> Vec<Packet> {
        assert!(!packets.is_empty(), "cannot protect an empty frame");
        assert!(
            packets.iter().all(|p| !p.parity),
            "input must be data packets"
        );
        let k = self.k();
        let r = self.r();
        let frame_index = packets[0].frame_index;
        let fragment_count = packets[0].fragment_count;
        let blocks = packets.len().div_ceil(k);
        let mut out = Vec::with_capacity(packets.len() + blocks * r);
        for (b, block) in packets.chunks(k).enumerate() {
            out.extend_from_slice(block);
            let shard_len = shard_len_for(block);
            let shards: Vec<Vec<u8>> = (0..k)
                .map(|slot| match block.get(slot) {
                    Some(p) => lift_shard(&p.payload, shard_len),
                    None => vec![0u8; shard_len], // virtual trailing shard
                })
                .collect();
            let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
            let parity = self.codec.encode(&refs, ops);
            for (pi, shard) in parity.into_iter().enumerate() {
                let pid = b * r + pi;
                out.push(Packet {
                    // Parity packets extend the frame's sequence space;
                    // exact seq values are irrelevant to recovery.
                    seq: u32::MAX - pid as u32,
                    frame_index,
                    fragment_index: fragment_count + pid as u16,
                    fragment_count,
                    payload: Bytes::from(shard),
                    parity: true,
                });
            }
        }
        out
    }

    /// Repairs one frame from whatever survived the channel. Decode
    /// work is charged to `ops`; blocks whose data all arrived cost
    /// nothing. The block's first surviving parity packet fixes its
    /// shard length; parity packets of another length count as erased.
    /// Returns `None` only on malformed input (foreign parity indices,
    /// data fragments longer than their block's shard).
    pub fn recover(&self, received: &[Packet], ops: &mut FecOps) -> Option<FecRecovery> {
        let k = self.k();
        let r = self.r();
        let fragment_count = received.first()?.fragment_count as usize;
        let blocks = fragment_count.div_ceil(k);
        let mut data: Vec<Option<Packet>> = vec![None; fragment_count];
        let mut parity: Vec<Vec<Option<&Packet>>> = vec![vec![None; r]; blocks];
        for p in received {
            if p.parity {
                let pid = (p.fragment_index as usize).checked_sub(fragment_count)?;
                if pid >= blocks * r {
                    return None; // parity for a block this frame lacks
                }
                parity[pid / r][pid % r] = Some(p);
            } else if (p.fragment_index as usize) < fragment_count {
                data[p.fragment_index as usize] = Some(p.clone());
            } else {
                return None; // malformed
            }
        }
        let mut complete = true;
        for (b, block_parity) in parity.iter().enumerate() {
            let lo = b * k;
            let hi = (lo + k).min(fragment_count);
            if data[lo..hi].iter().all(Option::is_some) {
                continue; // nothing to repair, nothing to charge
            }
            let Some(shard_len) = block_parity
                .iter()
                .flatten()
                .map(|p| p.payload.len())
                .next()
            else {
                complete = false; // erasures and no surviving parity
                continue;
            };
            let mut shards: Vec<Option<Vec<u8>>> = Vec::with_capacity(k + r);
            let mut malformed = false;
            for slot in 0..k {
                let idx = lo + slot;
                shards.push(if idx < fragment_count {
                    match &data[idx] {
                        Some(p) if p.payload.len() + 2 <= shard_len => {
                            Some(lift_shard(&p.payload, shard_len))
                        }
                        Some(_) => {
                            malformed = true;
                            None
                        }
                        None => None,
                    }
                } else {
                    Some(vec![0u8; shard_len]) // virtual trailing shard
                });
            }
            if malformed {
                return None;
            }
            for p in block_parity {
                shards.push(
                    p.filter(|p| p.payload.len() == shard_len)
                        .map(|p| p.payload.to_vec()),
                );
            }
            if !self.codec.decode(&mut shards, ops) {
                complete = false;
                continue;
            }
            for (slot, shard) in shards.iter().enumerate().take(hi - lo) {
                let idx = lo + slot;
                if data[idx].is_some() {
                    continue;
                }
                let shard = shard.as_ref().expect("decode filled data shards");
                let rebuilt = lower_shard(shard)?;
                data[idx] = Some(Packet {
                    seq: 0, // sequence of a rebuilt packet is synthetic
                    frame_index: received[0].frame_index,
                    fragment_index: idx as u16,
                    fragment_count: fragment_count as u16,
                    payload: rebuilt,
                    parity: false,
                });
            }
        }
        let data: Vec<Packet> = data.into_iter().flatten().collect();
        let complete = complete && data.len() == fragment_count;
        Some(FecRecovery { complete, data })
    }
}

/// Shard length for one block: the longest payload plus the two-byte
/// length prefix.
fn shard_len_for(block: &[Packet]) -> usize {
    2 + block.iter().map(Packet::len).max().unwrap_or(0)
}

/// Lifts a fragment payload into its equal-length shard.
fn lift_shard(payload: &[u8], shard_len: usize) -> Vec<u8> {
    debug_assert!(payload.len() + 2 <= shard_len);
    let mut shard = Vec::with_capacity(shard_len);
    shard.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    shard.extend_from_slice(payload);
    shard.resize(shard_len, 0);
    shard
}

/// Lowers a rebuilt shard back to the exact fragment payload; `None` if
/// the recorded length exceeds the shard body (corrupt reconstruction).
fn lower_shard(shard: &[u8]) -> Option<Bytes> {
    let len = u16::from_be_bytes([*shard.first()?, *shard.get(1)?]) as usize;
    if len > shard.len() - 2 {
        return None;
    }
    Some(Bytes::from(shard[2..2 + len].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtp::{reassemble_frame, Packetizer};

    fn fragments(data: &[u8], mtu: usize) -> Vec<Packet> {
        Packetizer::new(mtu).packetize(3, data)
    }

    fn xor(k: usize) -> FecProtector {
        FecProtector::new(FecSpec::Xor { k }).unwrap()
    }

    /// Recovers a frame, keeping it only when complete.
    fn recover_whole(fec: &FecProtector, received: &[Packet]) -> Option<Vec<Packet>> {
        let rec = fec.recover(received, &mut FecOps::default())?;
        rec.complete.then_some(rec.data)
    }

    #[test]
    fn xor_appends_one_parity_per_group() {
        let pkts = fragments(&[9u8; 500], 100); // 5 fragments
        let protected = xor(2).protect(&pkts, &mut FecOps::default());
        // Groups: [0,1] [2,3] [4] → 3 parity packets.
        assert_eq!(protected.len(), 5 + 3);
        assert_eq!(protected.iter().filter(|p| p.parity).count(), 3);
        assert!(FecProtector::new(FecSpec::Xor { k: 0 }).is_err());
    }

    #[test]
    fn xor_repairs_any_single_loss_per_group() {
        let data: Vec<u8> = (0..777).map(|i| (i * 13 + 5) as u8).collect();
        let pkts = fragments(&data, 100); // 8 fragments
        let fec = xor(4);
        let protected = fec.protect(&pkts, &mut FecOps::default());
        for victim in 0..8usize {
            let survivors: Vec<Packet> = protected
                .iter()
                .filter(|p| p.parity || p.fragment_index as usize != victim)
                .cloned()
                .collect();
            let recovered = recover_whole(&fec, &survivors).expect("single loss recoverable");
            assert_eq!(
                reassemble_frame(&recovered).unwrap(),
                data,
                "victim {victim}"
            );
        }
        // Lost parity with intact data needs no repair.
        let data_only: Vec<Packet> = protected.into_iter().filter(|p| !p.parity).collect();
        assert_eq!(
            reassemble_frame(&recover_whole(&fec, &data_only).unwrap()).unwrap(),
            data
        );
    }

    #[test]
    fn xor_double_loss_in_a_group_fails() {
        let pkts = fragments(&[1u8; 400], 100); // 4 fragments
        let fec = xor(4); // one group
        let mut ops = FecOps::default();
        let survivors: Vec<Packet> = fec
            .protect(&pkts, &mut ops)
            .into_iter()
            .filter(|p| p.parity || p.fragment_index >= 2)
            .collect();
        let rec = fec.recover(&survivors, &mut ops).unwrap();
        assert!(!rec.complete);
        assert_eq!(ops.blocks_failed, 1);
    }

    #[test]
    fn xor_groups_repair_independently() {
        let data = vec![5u8; 600];
        let pkts = fragments(&data, 100); // 6 fragments, groups of 3
        let fec = xor(3);
        // Drop data fragment 1 and the *second* group's parity.
        let survivors: Vec<Packet> = fec
            .protect(&pkts, &mut FecOps::default())
            .into_iter()
            .filter(|p| {
                let drop_parity_of_group_1 = p.parity && p.fragment_index == 7;
                let drop_data_fragment_1 = !p.parity && p.fragment_index == 1;
                !drop_parity_of_group_1 && !drop_data_fragment_1
            })
            .collect();
        assert_eq!(
            reassemble_frame(&recover_whole(&fec, &survivors).unwrap()).unwrap(),
            data
        );
    }

    #[test]
    fn xor_reduces_effective_frame_loss_on_a_lossy_channel() {
        use crate::channel::LossyChannel;
        use crate::loss::UniformLoss;
        let data = vec![7u8; 1000];
        let fec = xor(4);
        let trials = 3000;
        let run = |with_fec: bool, seed: u64| -> u32 {
            let mut chan = LossyChannel::new(Box::new(UniformLoss::new(0.05, seed)));
            let mut ok = 0u32;
            for f in 0..trials {
                let pkts = Packetizer::new(100).packetize(f, &data); // 10 fragments
                let sent = if with_fec {
                    fec.protect(&pkts, &mut FecOps::default())
                } else {
                    pkts
                };
                let survivors = chan.transmit(&sent);
                let recovered = if with_fec {
                    recover_whole(&fec, &survivors)
                } else {
                    (survivors.len() == 10).then_some(survivors)
                };
                if recovered.as_deref().and_then(reassemble_frame).is_some() {
                    ok += 1;
                }
            }
            ok
        };
        let plain = run(false, 1);
        let protected = run(true, 1);
        // At 5% packet loss and 10 fragments, ~40% of frames lose a
        // packet; groups of 4 recover the vast majority.
        assert!(
            protected > plain + trials as u32 / 10,
            "fec must recover a large share: {protected} vs {plain}"
        );
    }

    // ----- FecProtector over the full codec family -----

    fn protector(spec: FecSpec) -> FecProtector {
        FecProtector::new(spec).unwrap()
    }

    fn family() -> Vec<FecProtector> {
        vec![
            protector(FecSpec::Xor { k: 3 }),
            protector(FecSpec::Rs { k: 4, r: 2 }),
            protector(FecSpec::Lt {
                k: 4,
                r: 3,
                seed: 2005,
            }),
            protector(FecSpec::Interleaved { k: 4, r: 2 }),
        ]
    }

    #[test]
    fn every_family_round_trips_losslessly() {
        let data: Vec<u8> = (0..950).map(|i| (i * 11 + 3) as u8).collect();
        for fec in family() {
            let pkts = fragments(&data, 100);
            let mut ops = FecOps::default();
            let protected = fec.protect(&pkts, &mut ops);
            assert!(ops.blocks_encoded > 0);
            assert!(ops.parity_bytes > 0);
            let rec = fec.recover(&protected, &mut ops).unwrap();
            assert!(rec.complete, "{}", fec.spec().label());
            assert_eq!(reassemble_frame(&rec.data).unwrap(), data);
            // Clean receive costs no decode work.
            assert_eq!(ops.blocks_decoded, 0);
        }
    }

    #[test]
    fn rs_repairs_a_burst_the_xor_group_cannot() {
        let data: Vec<u8> = (0..780).map(|i| (i * 31 + 1) as u8).collect();
        let pkts = fragments(&data, 100); // 8 fragments
        let rs = protector(FecSpec::Rs { k: 4, r: 2 });
        let mut ops = FecOps::default();
        let protected = rs.protect(&pkts, &mut ops);
        // Burst: drop data fragments 1 and 2 — same block of 4.
        let survivors: Vec<Packet> = protected
            .into_iter()
            .filter(|p| p.parity || !(1..=2).contains(&p.fragment_index))
            .collect();
        let rec = rs.recover(&survivors, &mut ops).unwrap();
        assert!(rec.complete);
        assert_eq!(reassemble_frame(&rec.data).unwrap(), data);
        assert!(ops.blocks_repaired >= 1);
        assert!(ops.matrix_inversions >= 1);
        assert!(ops.gf_mul_bytes > 0);
    }

    #[test]
    fn partial_repair_is_reported_incomplete_but_kept() {
        let data: Vec<u8> = (0..780).map(|i| (i * 5) as u8).collect();
        let pkts = fragments(&data, 100); // 8 fragments, two blocks of 4
        let rs = protector(FecSpec::Rs { k: 4, r: 1 });
        let mut ops = FecOps::default();
        let protected = rs.protect(&pkts, &mut ops);
        // Block 0 loses one fragment (repairable); block 1 loses three
        // (hopeless with r = 1).
        let survivors: Vec<Packet> = protected
            .into_iter()
            .filter(|p| p.parity || ![1u16, 4, 5, 6].contains(&p.fragment_index))
            .collect();
        let rec = rs.recover(&survivors, &mut ops).unwrap();
        assert!(!rec.complete);
        // Fragment 1 was rebuilt and rides along for damaged reassembly.
        assert!(rec.data.iter().any(|p| p.fragment_index == 1));
        assert_eq!(rec.data.len(), 5); // 0..4 from block 0, 7 from block 1
        assert_eq!(ops.blocks_repaired, 1);
        assert_eq!(ops.blocks_failed, 1);
    }

    #[test]
    fn interleaved_xor_survives_contiguous_bursts() {
        let data: Vec<u8> = (0..1150).map(|i| (i * 3 + 7) as u8).collect();
        let pkts = fragments(&data, 100); // 12 fragments
        let ilv = protector(FecSpec::Interleaved { k: 6, r: 2 });
        let mut ops = FecOps::default();
        let protected = ilv.protect(&pkts, &mut ops);
        // Contiguous burst of 2 inside one block.
        let survivors: Vec<Packet> = protected
            .into_iter()
            .filter(|p| p.parity || !(2..=3).contains(&p.fragment_index))
            .collect();
        let rec = ilv.recover(&survivors, &mut ops).unwrap();
        assert!(rec.complete);
        assert_eq!(reassemble_frame(&rec.data).unwrap(), data);
        // Pure XOR family: no field multiplies.
        assert_eq!(ops.gf_mul_bytes, 0);
        assert!(ops.xor_bytes > 0);
    }

    #[test]
    fn parity_bytes_equal_wire_parity_payloads() {
        let data: Vec<u8> = (0..900).map(|i| i as u8).collect();
        for fec in family() {
            let pkts = fragments(&data, 100);
            let mut ops = FecOps::default();
            let protected = fec.protect(&pkts, &mut ops);
            let wire: u64 = protected
                .iter()
                .filter(|p| p.parity)
                .map(|p| p.len() as u64)
                .sum();
            assert_eq!(
                ops.parity_bytes,
                wire,
                "{}: ledger and wire must agree so parity is charged exactly once",
                fec.spec().label()
            );
        }
    }

    #[test]
    fn recover_with_no_parity_and_no_loss_is_complete() {
        let data = vec![8u8; 430];
        let fec = protector(FecSpec::Rs { k: 4, r: 2 });
        let pkts = fragments(&data, 100);
        let mut ops = FecOps::default();
        let rec = fec.recover(&pkts, &mut ops).unwrap();
        assert!(rec.complete);
        assert_eq!(reassemble_frame(&rec.data).unwrap(), data);
    }
}
