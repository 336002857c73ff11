//! Proves the zero-allocation steady state of the encode hot path: after
//! warm-up, [`pbpair_codec::Encoder::encode_frame_into`] must perform no
//! heap allocation at all, on the serial schedule and on the slice
//! schedule alike, with the three-step search and with the full search
//! (whose border macroblocks copy their window into persistent scratch). It also bounds the receiver: after warm-up,
//! [`pbpair_codec::Decoder::receive`] allocates only the picture it
//! reconstructs (one buffer per plane) for an intact or a truncated
//! frame, and nothing when copy concealment repeats the reference. A
//! counting global allocator measures all of them directly.
//!
//! This file intentionally contains a **single** test: the allocation
//! counter is process-global, and a sibling test running concurrently
//! would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pbpair_codec::{
    Decoder, EncodedFrame, Encoder, EncoderConfig, MeConfig, NaturalPolicy, OptConfig,
    SearchStrategy,
};
use pbpair_media::synth::SyntheticSequence;
use pbpair_media::VideoFormat;

/// Counts every allocation and reallocation (deallocations are free —
/// the steady state is allowed to drop nothing either, but returning
/// memory is not the failure mode this guards).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Encodes `frames` after a four-frame warm-up and returns the most
/// allocations any one steady-state frame performed.
fn max_allocs_per_frame(opt: OptConfig, me: MeConfig, frames: &[pbpair_media::Frame]) -> u64 {
    let mut enc = Encoder::new(EncoderConfig {
        opt,
        me,
        ..EncoderConfig::default()
    });
    let mut policy = NaturalPolicy::new();
    let mut out = EncodedFrame::empty();

    // Warm-up: the first frames size the persistent scratch (bit writer,
    // output slot, reconstruction frames, MV history, row scratch). The
    // full-search window scratch is sized when the encoder is built.
    for frame in &frames[..4] {
        enc.encode_frame_into(frame, &mut policy, &mut out);
    }

    let mut worst = 0;
    for frame in &frames[4..] {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        enc.encode_frame_into(frame, &mut policy, &mut out);
        worst = worst.max(ALLOCATIONS.load(Ordering::SeqCst) - before);
    }
    assert!(out.stats.bits > 0, "sanity: frames actually encoded");
    worst
}

/// The allocations of a reconstructed picture: one buffer per plane.
const PICTURE_ALLOCS: u64 = 3;

/// What reaches the receiver of one encoded frame.
type Arrival = fn(&[u8]) -> Option<&[u8]>;

/// Receives what `arrive` makes of each of `streams` after a four-frame
/// warm-up of intact frames, and returns the most allocations any one
/// steady-state `receive` call performed.
fn max_allocs_per_receive(streams: &[Vec<u8>], arrive: Arrival) -> u64 {
    let mut dec = Decoder::new(VideoFormat::QCIF);
    for data in &streams[..4] {
        dec.receive(Some(data));
    }
    let mut worst = 0;
    for data in &streams[4..] {
        let arrived = arrive(data);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let (shown, _) = dec.receive(arrived);
        worst = worst.max(ALLOCATIONS.load(Ordering::SeqCst) - before);
        assert_eq!(shown.format(), VideoFormat::QCIF);
    }
    worst
}

#[test]
fn steady_state_encoding_performs_no_heap_allocation() {
    let mut seq = SyntheticSequence::foreman_class(17);
    // Materialize the inputs up front — producing a frame allocates, and
    // that must not be charged to the encoder.
    let frames: Vec<_> = (0..10).map(|_| seq.next_frame()).collect();

    let full = MeConfig {
        search_range: 15,
        strategy: SearchStrategy::Full,
    };
    for me in [MeConfig::default(), full] {
        for (schedule, slices) in [("serial", 1), ("2-slice", 2)] {
            let opt = OptConfig {
                slices,
                ..OptConfig::default()
            };
            let worst = max_allocs_per_frame(opt, me, &frames);
            assert_eq!(
                worst, 0,
                "steady-state {schedule} encode_frame_into with the {:?} search must not allocate \
                 ({worst} allocations in one frame)",
                me.strategy
            );
        }
    }

    // The receiver, over the same clip encoded once up front.
    let mut enc = Encoder::new(EncoderConfig::default());
    let mut policy = NaturalPolicy::new();
    let streams: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| enc.encode_frame(f, &mut policy).data)
        .collect();
    let arrivals: [(&str, Arrival); 2] = [
        ("an intact frame", |d| Some(d)),
        ("a truncated frame", |d| Some(&d[..d.len() / 2])),
    ];
    for (what, arrive) in arrivals {
        let worst = max_allocs_per_receive(&streams, arrive);
        assert!(
            worst <= PICTURE_ALLOCS,
            "receiving {what} must allocate only its picture ({worst} allocations in one frame)"
        );
    }
    let lost = max_allocs_per_receive(&streams, |_| None);
    assert_eq!(
        lost, 0,
        "copy concealment of a lost frame must not allocate ({lost} allocations in one frame)"
    );
}
