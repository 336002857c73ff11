//! Deterministic canonical Huffman codebooks.
//!
//! The codec's VLC tables are not copied from the H.263 annex; they are
//! *generated* — a canonical Huffman code built from a static frequency
//! model of each symbol class (coefficient events, motion vectors, coded
//! block patterns). This gives H.263-like code-length profiles while being
//! prefix-free **by construction**, and both the encoder and the decoder
//! derive the identical table from the same weights.

use crate::bitstream::{BitReader, BitWriter, BitstreamError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One variable-length codeword: `len` bits, stored right-aligned in
/// `bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Code {
    /// Codeword value, right-aligned (the MSB of the codeword is bit
    /// `len-1`).
    pub bits: u32,
    /// Codeword length in bits, 1..=32.
    pub len: u8,
}

/// A canonical Huffman codebook over symbols `0..n`.
///
/// # Example
///
/// ```rust
/// use pbpair_codec::vlc::huffman::Codebook;
/// use pbpair_codec::bitstream::{BitReader, BitWriter};
///
/// # fn main() -> Result<(), pbpair_codec::bitstream::BitstreamError> {
/// // Three symbols; symbol 0 is twice as common as the others.
/// let book = Codebook::from_weights(&[4, 2, 2]);
/// let mut w = BitWriter::new();
/// book.write(&mut w, 2);
/// book.write(&mut w, 0);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(book.read(&mut r)?, 2);
/// assert_eq!(book.read(&mut r)?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Codebook {
    codes: Vec<Code>,
    /// Symbols sorted canonically: by (length, symbol id).
    sorted_symbols: Vec<u32>,
    /// For each length `l`, the canonical value of the first code of that
    /// length, and the index into `sorted_symbols` where codes of that
    /// length begin. Lengths run 1..=MAX_CODE_LEN.
    first_code: [u32; Codebook::MAX_CODE_LEN + 1],
    count_of_len: [u32; Codebook::MAX_CODE_LEN + 1],
    first_index: [u32; Codebook::MAX_CODE_LEN + 1],
    max_len: u8,
}

impl Codebook {
    /// The longest codeword this builder accepts. Frequency models whose
    /// Huffman tree exceeds this are a bug in the model, not a runtime
    /// condition.
    pub const MAX_CODE_LEN: usize = 28;

    /// Builds the canonical codebook for the given symbol weights.
    ///
    /// Ties are broken deterministically (by symbol id), so every build
    /// from the same weights yields the same code — encoder and decoder can
    /// each build their own copy.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 symbols are given, if any weight is zero, or
    /// if the resulting tree exceeds [`Codebook::MAX_CODE_LEN`].
    pub fn from_weights(weights: &[u64]) -> Self {
        assert!(weights.len() >= 2, "a codebook needs at least two symbols");
        assert!(
            weights.iter().all(|&w| w > 0),
            "all symbol weights must be positive"
        );

        // Standard Huffman with a deterministic heap order: (weight, tie
        // counter). Internal nodes get fresh tie ids after all leaves so
        // builds are reproducible.
        #[derive(Debug)]
        enum Node {
            Leaf(u32),
            Internal(Box<Node>, Box<Node>),
        }
        let mut heap: BinaryHeap<Reverse<(u64, u32, usize)>> = BinaryHeap::new();
        let mut nodes: Vec<Option<Node>> = Vec::with_capacity(weights.len() * 2);
        for (i, &w) in weights.iter().enumerate() {
            nodes.push(Some(Node::Leaf(i as u32)));
            heap.push(Reverse((w, i as u32, i)));
        }
        let mut tie = weights.len() as u32;
        while heap.len() > 1 {
            let Reverse((wa, _, ia)) = heap.pop().expect("len > 1");
            let Reverse((wb, _, ib)) = heap.pop().expect("len > 1");
            let a = nodes[ia].take().expect("node taken once");
            let b = nodes[ib].take().expect("node taken once");
            nodes.push(Some(Node::Internal(Box::new(a), Box::new(b))));
            heap.push(Reverse((wa + wb, tie, nodes.len() - 1)));
            tie += 1;
        }
        let Reverse((_, _, root_idx)) = heap.pop().expect("non-empty");
        let root = nodes[root_idx].take().expect("root present");

        // Extract code lengths.
        let mut lengths = vec![0u8; weights.len()];
        let mut stack = vec![(root, 0u8)];
        while let Some((node, depth)) = stack.pop() {
            match node {
                Node::Leaf(sym) => {
                    // A 1-symbol degenerate tree cannot occur (len >= 2),
                    // so depth >= 1 here.
                    lengths[sym as usize] = depth.max(1);
                }
                Node::Internal(a, b) => {
                    stack.push((*a, depth + 1));
                    stack.push((*b, depth + 1));
                }
            }
        }
        let max_len = *lengths.iter().max().expect("non-empty");
        assert!(
            (max_len as usize) <= Codebook::MAX_CODE_LEN,
            "frequency model produced a {max_len}-bit code; flatten the weights"
        );

        Codebook::from_lengths(&lengths)
    }

    /// Builds the canonical codebook from explicit code lengths (must form
    /// a full prefix code, i.e. satisfy Kraft equality ≤ 1).
    ///
    /// # Panics
    ///
    /// Panics if the lengths violate the Kraft inequality.
    pub fn from_lengths(lengths: &[u8]) -> Self {
        let max_len = *lengths.iter().max().expect("non-empty") as usize;
        assert!(max_len <= Codebook::MAX_CODE_LEN);
        let kraft: u64 = lengths
            .iter()
            .map(|&l| 1u64 << (Codebook::MAX_CODE_LEN - l as usize))
            .sum();
        assert!(
            kraft <= 1u64 << Codebook::MAX_CODE_LEN,
            "code lengths violate the Kraft inequality"
        );

        // Canonical assignment: sort symbols by (length, id).
        let mut order: Vec<u32> = (0..lengths.len() as u32).collect();
        order.sort_by_key(|&s| (lengths[s as usize], s));

        let mut codes = vec![Code { bits: 0, len: 0 }; lengths.len()];
        let mut first_code = [0u32; Codebook::MAX_CODE_LEN + 1];
        let mut count_of_len = [0u32; Codebook::MAX_CODE_LEN + 1];
        let mut first_index = [0u32; Codebook::MAX_CODE_LEN + 1];
        for &l in lengths {
            count_of_len[l as usize] += 1;
        }
        let mut code = 0u32;
        let mut index = 0u32;
        for l in 1..=max_len {
            code <<= 1;
            first_code[l] = code;
            first_index[l] = index;
            code += count_of_len[l];
            index += count_of_len[l];
        }
        // Assign per-symbol codes in canonical order.
        let mut next = first_code;
        for &s in &order {
            let l = lengths[s as usize] as usize;
            codes[s as usize] = Code {
                bits: next[l],
                len: l as u8,
            };
            next[l] += 1;
        }

        Codebook {
            codes,
            sorted_symbols: order,
            first_code,
            count_of_len,
            first_index,
            max_len: max_len as u8,
        }
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the codebook is empty (never true: builders require ≥ 2
    /// symbols).
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The codeword for `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is out of range.
    pub fn code(&self, symbol: usize) -> Code {
        self.codes[symbol]
    }

    /// Length in bits of `symbol`'s codeword — used by rate models without
    /// actually writing bits.
    pub fn code_len(&self, symbol: usize) -> u32 {
        self.codes[symbol].len as u32
    }

    /// Longest codeword length in the book.
    pub fn max_code_len(&self) -> u8 {
        self.max_len
    }

    /// Writes `symbol`'s codeword.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is out of range.
    pub fn write(&self, w: &mut BitWriter, symbol: usize) {
        let c = self.codes[symbol];
        w.put_bits(c.bits, c.len as u32);
    }

    /// Reads one symbol using canonical decoding (one compare per code
    /// length).
    ///
    /// # Errors
    ///
    /// [`BitstreamError::UnexpectedEnd`] on truncation. A bit pattern that
    /// matches no codeword cannot occur for a full code, but a non-full
    /// (Kraft < 1) book reports it as [`BitstreamError::ValueOutOfRange`].
    pub fn read(&self, r: &mut BitReader<'_>) -> Result<usize, BitstreamError> {
        let mut v = 0u32;
        for l in 1..=self.max_len as usize {
            v = (v << 1) | r.get_bit()? as u32;
            let cnt = self.count_of_len[l];
            if cnt > 0 && v >= self.first_code[l] && v < self.first_code[l] + cnt {
                let idx = self.first_index[l] + (v - self.first_code[l]);
                return Ok(self.sorted_symbols[idx as usize] as usize);
            }
        }
        Err(BitstreamError::ValueOutOfRange {
            what: "vlc codeword",
            value: v as i64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_codes_are_prefix_free() {
        let weights: Vec<u64> = (1..=40).map(|i| (i * i) as u64).collect();
        let book = Codebook::from_weights(&weights);
        for a in 0..book.len() {
            for b in 0..book.len() {
                if a == b {
                    continue;
                }
                let (ca, cb) = (book.code(a), book.code(b));
                if ca.len <= cb.len {
                    let prefix = cb.bits >> (cb.len - ca.len);
                    assert_ne!(prefix, ca.bits, "code {a} is a prefix of {b}");
                }
            }
        }
    }

    #[test]
    fn heavier_symbols_get_shorter_codes() {
        let book = Codebook::from_weights(&[1000, 100, 10, 1]);
        assert!(book.code_len(0) <= book.code_len(1));
        assert!(book.code_len(1) <= book.code_len(2));
        assert!(book.code_len(2) <= book.code_len(3));
    }

    #[test]
    fn roundtrip_every_symbol() {
        let weights: Vec<u64> = (0..257).map(|i| 1 + (i % 13) as u64 * 7).collect();
        let book = Codebook::from_weights(&weights);
        let mut w = BitWriter::new();
        for s in 0..book.len() {
            book.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for s in 0..book.len() {
            assert_eq!(book.read(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let weights: Vec<u64> = vec![5, 5, 5, 5, 3, 3, 2, 2, 1, 1];
        let a = Codebook::from_weights(&weights);
        let b = Codebook::from_weights(&weights);
        for s in 0..weights.len() {
            assert_eq!(a.code(s), b.code(s));
        }
    }

    #[test]
    fn two_symbol_book_uses_one_bit() {
        let book = Codebook::from_weights(&[7, 3]);
        assert_eq!(book.code_len(0), 1);
        assert_eq!(book.code_len(1), 1);
        assert_ne!(book.code(0).bits, book.code(1).bits);
    }

    #[test]
    fn kraft_equality_holds_for_huffman() {
        let weights: Vec<u64> = (1..=17).map(|i| i as u64 * 3 + 1).collect();
        let book = Codebook::from_weights(&weights);
        let kraft: f64 = (0..book.len())
            .map(|s| 2f64.powi(-(book.code_len(s) as i32)))
            .sum();
        assert!(
            (kraft - 1.0).abs() < 1e-9,
            "huffman codes are full: {kraft}"
        );
    }

    #[test]
    fn truncated_stream_reports_end() {
        let book = Codebook::from_weights(&[1, 1, 1, 1, 1]);
        let bytes: Vec<u8> = Vec::new();
        let mut r = BitReader::new(&bytes);
        assert!(matches!(
            book.read(&mut r),
            Err(BitstreamError::UnexpectedEnd)
        ));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let _ = Codebook::from_weights(&[3, 0, 1]);
    }
}
