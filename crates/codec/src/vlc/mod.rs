//! Variable-length coding of coefficient events, motion vectors, and coded
//! block patterns.
//!
//! The entropy layer mirrors H.263's structure — (LAST, RUN, LEVEL) events
//! for transform coefficients, a short code per motion-vector component,
//! and a coded-block-pattern code per macroblock — but the tables are
//! generated canonical Huffman codes (see [`huffman`]) from static
//! frequency models, with an escape path (Exp-Golomb coded) for events
//! outside the table, just like H.263's ESCAPE codeword.

pub mod huffman;
mod tables;

use crate::bitstream::{BitReader, BitWriter, BitstreamError};
pub use tables::{cbp_codebook, mvd_codebook, tcoef_codebook};

/// Largest RUN covered by a regular TCOEF codeword; longer runs escape.
pub const TCOEF_RUN_MAX: u8 = 14;
/// Largest |LEVEL| covered by a regular TCOEF codeword; larger levels
/// escape.
pub const TCOEF_LEVEL_MAX: i16 = 8;
/// Motion-vector component magnitude covered by a regular codeword.
pub const MVD_MAX: i16 = 16;

/// One (LAST, RUN, LEVEL) transform-coefficient event, H.263 style:
/// `run` zero coefficients followed by one coefficient of value `level`,
/// with `last` set on the final event of the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcoefEvent {
    /// True if this is the last non-zero coefficient of the block.
    pub last: bool,
    /// Number of zero coefficients preceding this one in scan order.
    pub run: u8,
    /// The non-zero coefficient value.
    pub level: i16,
}

/// Writes one TCOEF event: a regular table codeword plus sign bit when the
/// event is in range, otherwise the escape codeword followed by
/// `last`/`ue(run)`/`se(level)`.
///
/// # Panics
///
/// Panics if `level == 0` (a zero level is not an event).
pub fn write_tcoef(w: &mut BitWriter, ev: TcoefEvent) {
    assert!(ev.level != 0, "TCOEF level must be non-zero");
    let book = tcoef_codebook();
    let mag = ev.level.unsigned_abs() as i16;
    if ev.run <= TCOEF_RUN_MAX && mag <= TCOEF_LEVEL_MAX {
        let sym = tables::tcoef_symbol(ev.last, ev.run, mag);
        book.write(w, sym);
        w.put_bit(ev.level < 0);
    } else {
        book.write(w, tables::TCOEF_ESCAPE);
        w.put_bit(ev.last);
        w.put_ue(ev.run as u32);
        w.put_se(ev.level as i32);
    }
}

/// Reads one TCOEF event.
///
/// # Errors
///
/// Propagates truncation errors, and reports
/// [`BitstreamError::ValueOutOfRange`] for an escaped event with
/// `level == 0` or an absurd run (corruption).
pub fn read_tcoef(r: &mut BitReader<'_>) -> Result<TcoefEvent, BitstreamError> {
    let book = tcoef_codebook();
    let sym = book.read(r)?;
    if sym == tables::TCOEF_ESCAPE {
        let last = r.get_bit()?;
        let run = r.get_ue()?;
        // A 64-coefficient block admits runs up to 63 (a lone coefficient
        // in the final scan position of an inter block).
        if run > 63 {
            return Err(BitstreamError::ValueOutOfRange {
                what: "escaped TCOEF run",
                value: run as i64,
            });
        }
        let level = r.get_se()?;
        if level == 0 || level.unsigned_abs() > 4096 {
            return Err(BitstreamError::ValueOutOfRange {
                what: "escaped TCOEF level",
                value: level as i64,
            });
        }
        Ok(TcoefEvent {
            last,
            run: run as u8,
            level: level as i16,
        })
    } else {
        let (last, run, mag) = tables::tcoef_unsymbol(sym);
        let neg = r.get_bit()?;
        Ok(TcoefEvent {
            last,
            run,
            level: if neg { -mag } else { mag },
        })
    }
}

/// Writes one motion-vector component (in integer pixels).
pub fn write_mvd(w: &mut BitWriter, v: i16) {
    let book = mvd_codebook();
    if v.abs() <= MVD_MAX {
        book.write(w, tables::mvd_symbol(v));
    } else {
        book.write(w, tables::MVD_ESCAPE);
        w.put_se(v as i32);
    }
}

/// Reads one motion-vector component.
///
/// # Errors
///
/// Propagates truncation; escaped components beyond ±2048 are reported as
/// corruption.
pub fn read_mvd(r: &mut BitReader<'_>) -> Result<i16, BitstreamError> {
    let book = mvd_codebook();
    let sym = book.read(r)?;
    if sym == tables::MVD_ESCAPE {
        let v = r.get_se()?;
        if v.unsigned_abs() > 2048 {
            return Err(BitstreamError::ValueOutOfRange {
                what: "escaped MVD",
                value: v as i64,
            });
        }
        Ok(v as i16)
    } else {
        Ok(tables::mvd_unsymbol(sym))
    }
}

/// Writes a 6-bit coded block pattern (bit 5..2 = luma blocks 0..3 in
/// raster order, bit 1 = Cb, bit 0 = Cr).
pub fn write_cbp(w: &mut BitWriter, cbp: u8) {
    debug_assert!(cbp < 64);
    cbp_codebook().write(w, cbp as usize);
}

/// Reads a coded block pattern.
///
/// # Errors
///
/// Propagates truncation errors.
pub fn read_cbp(r: &mut BitReader<'_>) -> Result<u8, BitstreamError> {
    Ok(cbp_codebook().read(r)? as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcoef_regular_roundtrip() {
        let mut w = BitWriter::new();
        let events = [
            TcoefEvent {
                last: false,
                run: 0,
                level: 1,
            },
            TcoefEvent {
                last: false,
                run: 3,
                level: -2,
            },
            TcoefEvent {
                last: true,
                run: 14,
                level: 8,
            },
        ];
        for ev in events {
            write_tcoef(&mut w, ev);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for ev in events {
            assert_eq!(read_tcoef(&mut r).unwrap(), ev);
        }
    }

    #[test]
    fn tcoef_escape_roundtrip() {
        let mut w = BitWriter::new();
        let events = [
            TcoefEvent {
                last: false,
                run: 40,
                level: 1,
            },
            TcoefEvent {
                last: true,
                run: 0,
                level: 300,
            },
            TcoefEvent {
                last: true,
                run: 62,
                level: -2000,
            },
        ];
        for ev in events {
            write_tcoef(&mut w, ev);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for ev in events {
            assert_eq!(read_tcoef(&mut r).unwrap(), ev);
        }
    }

    #[test]
    fn common_events_cost_fewer_bits() {
        let common = TcoefEvent {
            last: false,
            run: 0,
            level: 1,
        };
        let rare = TcoefEvent {
            last: true,
            run: 14,
            level: 8,
        };
        let escaped = TcoefEvent {
            last: true,
            run: 30,
            level: 100,
        };
        let bits = |ev| {
            let mut w = BitWriter::new();
            write_tcoef(&mut w, ev);
            w.bit_len()
        };
        assert!(bits(common) < bits(rare));
        assert!(bits(rare) <= bits(escaped));
        assert!(bits(common) <= 5, "the most common event must be short");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_level_is_rejected() {
        let mut w = BitWriter::new();
        write_tcoef(
            &mut w,
            TcoefEvent {
                last: false,
                run: 0,
                level: 0,
            },
        );
    }

    #[test]
    fn mvd_roundtrip_full_regular_range() {
        let mut w = BitWriter::new();
        for v in -MVD_MAX..=MVD_MAX {
            write_mvd(&mut w, v);
        }
        write_mvd(&mut w, 500);
        write_mvd(&mut w, -731);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for v in -MVD_MAX..=MVD_MAX {
            assert_eq!(read_mvd(&mut r).unwrap(), v);
        }
        assert_eq!(read_mvd(&mut r).unwrap(), 500);
        assert_eq!(read_mvd(&mut r).unwrap(), -731);
    }

    #[test]
    fn zero_mv_is_the_shortest() {
        let len = |v: i16| {
            let mut w = BitWriter::new();
            write_mvd(&mut w, v);
            w.bit_len()
        };
        for v in [-16i16, -7, -1, 1, 3, 9, 16] {
            assert!(len(0) <= len(v), "mvd 0 must not cost more than {v}");
        }
    }

    #[test]
    fn cbp_roundtrip_all_patterns() {
        let mut w = BitWriter::new();
        for cbp in 0..64u8 {
            write_cbp(&mut w, cbp);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for cbp in 0..64u8 {
            assert_eq!(read_cbp(&mut r).unwrap(), cbp);
        }
    }

    #[test]
    fn corrupt_escape_level_detected() {
        // Hand-craft: escape codeword + last bit + ue(0 run) + se(0 level).
        let mut w = BitWriter::new();
        tcoef_codebook().write(&mut w, super::tables::TCOEF_ESCAPE);
        w.put_bit(true);
        w.put_ue(0);
        w.put_se(0); // illegal: zero level
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(matches!(
            read_tcoef(&mut r),
            Err(BitstreamError::ValueOutOfRange { .. })
        ));
    }
}
