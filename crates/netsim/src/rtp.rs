//! RTP-style packetization and reassembly.
//!
//! Following the paper's transport setup (its ref. \[8\], RTP): each encoded frame rides
//! in a single packet unless it exceeds the MTU, in which case it is
//! fragmented; a frame is decodable only if *all* its fragments arrive
//! (VLC desynchronization makes partial frames useless, as §1 of the
//! paper explains).

use crate::packet::Packet;

/// Default payload MTU in bytes (1500-byte Ethernet minus IP/UDP/RTP
/// headers).
pub const DEFAULT_MTU: usize = 1400;

/// Splits encoded frames into packets.
#[derive(Debug, Clone)]
pub struct Packetizer {
    mtu: usize,
    next_seq: u32,
}

impl Packetizer {
    /// Creates a packetizer with the given payload MTU.
    ///
    /// # Panics
    ///
    /// Panics if `mtu == 0`.
    pub fn new(mtu: usize) -> Self {
        assert!(mtu > 0, "mtu must be positive");
        Packetizer { mtu, next_seq: 0 }
    }

    /// The payload MTU.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Packetizes one encoded frame. Returns at least one packet; empty
    /// frames produce a single empty-marker packet is not needed because
    /// the encoder never emits zero bytes.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty (an encoded frame always has a header).
    pub fn packetize(&mut self, frame_index: u64, data: &[u8]) -> Vec<Packet> {
        assert!(!data.is_empty(), "encoded frames are never empty");
        let count = data.len().div_ceil(self.mtu);
        let count_u16 =
            u16::try_from(count).expect("frame larger than 65535 fragments is impossible");
        let mut out = Vec::with_capacity(count);
        for (i, fragment) in data.chunks(self.mtu).enumerate() {
            out.push(Packet {
                seq: self.next_seq,
                frame_index,
                fragment_index: i as u16,
                fragment_count: count_u16,
                payload: fragment.to_vec(),
                parity: false,
            });
            self.next_seq = self.next_seq.wrapping_add(1);
        }
        out
    }
}

impl Default for Packetizer {
    fn default() -> Self {
        Packetizer::new(DEFAULT_MTU)
    }
}

/// Reassembles the packets of one frame.
///
/// Returns `Some(frame_bytes)` when every fragment of the frame is
/// present (in any order), `None` otherwise.
pub fn reassemble_frame(packets: &[Packet]) -> Option<Vec<u8>> {
    let first = packets.first()?;
    let count = first.fragment_count as usize;
    if packets.len() != count {
        return None;
    }
    let frame_index = first.frame_index;
    let mut slots: Vec<Option<&Packet>> = vec![None; count];
    for p in packets {
        if p.parity
            || p.frame_index != frame_index
            || p.fragment_count as usize != count
            || p.fragment_index as usize >= count
        {
            return None;
        }
        if slots[p.fragment_index as usize].replace(p).is_some() {
            return None; // duplicate fragment
        }
    }
    let mut out = Vec::with_capacity(packets.iter().map(Packet::len).sum());
    for s in slots {
        out.extend_from_slice(&s?.payload);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_frame_is_one_packet() {
        let mut p = Packetizer::new(100);
        let pkts = p.packetize(5, &[7u8; 80]);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].fragment_count, 1);
        assert_eq!(pkts[0].frame_index, 5);
        assert_eq!(reassemble_frame(&pkts).unwrap(), vec![7u8; 80]);
    }

    #[test]
    fn large_frame_fragments_and_reassembles() {
        let mut p = Packetizer::new(100);
        let data: Vec<u8> = (0..250).map(|i| i as u8).collect();
        let pkts = p.packetize(0, &data);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].len(), 100);
        assert_eq!(pkts[2].len(), 50);
        assert!(pkts.iter().all(|p| p.fragment_count == 3));
        assert_eq!(reassemble_frame(&pkts).unwrap(), data);
    }

    #[test]
    fn reassembly_is_order_insensitive() {
        let mut p = Packetizer::new(64);
        let data: Vec<u8> = (0..200).map(|i| (i * 3) as u8).collect();
        let mut pkts = p.packetize(1, &data);
        pkts.reverse();
        assert_eq!(reassemble_frame(&pkts).unwrap(), data);
    }

    #[test]
    fn missing_fragment_fails_reassembly() {
        let mut p = Packetizer::new(64);
        let data = vec![1u8; 200];
        let mut pkts = p.packetize(1, &data);
        pkts.remove(1);
        assert!(reassemble_frame(&pkts).is_none());
    }

    #[test]
    fn duplicate_fragment_fails_reassembly() {
        let mut p = Packetizer::new(64);
        let data = vec![1u8; 130];
        let mut pkts = p.packetize(1, &data);
        let dup = pkts[0].clone();
        pkts[1] = dup;
        assert!(reassemble_frame(&pkts).is_none());
    }

    #[test]
    fn mixed_frames_fail_reassembly() {
        let mut p = Packetizer::new(64);
        let a = p.packetize(1, &[1u8; 64 * 2]);
        let b = p.packetize(2, &[2u8; 64 * 2]);
        let mixed = vec![a[0].clone(), b[1].clone()];
        assert!(reassemble_frame(&mixed).is_none());
    }

    #[test]
    fn sequence_numbers_are_monotonic_across_frames() {
        let mut p = Packetizer::new(10);
        let a = p.packetize(0, &[0u8; 25]); // 3 packets: seq 0,1,2
        let b = p.packetize(1, &[0u8; 5]); // seq 3
        assert_eq!(a.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(b[0].seq, 3);
    }

    #[test]
    fn empty_reassembly_input_yields_none() {
        assert!(reassemble_frame(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "never empty")]
    fn empty_frame_is_a_bug() {
        let mut p = Packetizer::default();
        let _ = p.packetize(0, &[]);
    }
}
