//! Proves the zero-allocation steady state of the encode hot path: after
//! warm-up, [`pbpair_codec::Encoder::encode_frame_into`] must perform no
//! heap allocation at all, on the serial schedule and on the slice
//! schedule alike. A counting global allocator measures both directly.
//!
//! This file intentionally contains a **single** test: the allocation
//! counter is process-global, and a sibling test running concurrently
//! would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pbpair_codec::{EncodedFrame, Encoder, EncoderConfig, NaturalPolicy, OptConfig};
use pbpair_media::synth::SyntheticSequence;

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
fn max_allocs_per_frame(opt: OptConfig, frames: &[pbpair_media::Frame]) -> u64 {
    let mut enc = Encoder::new(EncoderConfig {
        opt,
        ..EncoderConfig::default()
    });
    let mut policy = NaturalPolicy::new();
    let mut out = EncodedFrame::empty();

    // Warm-up: the first frames size the persistent scratch (bit writer,
    // output slot, reconstruction frames, MV history, row scratch).
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

#[test]
fn steady_state_encoding_performs_no_heap_allocation() {
    let mut seq = SyntheticSequence::foreman_class(17);
    // Materialize the inputs up front — producing a frame allocates, and
    // that must not be charged to the encoder.
    let frames: Vec<_> = (0..10).map(|_| seq.next_frame()).collect();

    let serial = max_allocs_per_frame(OptConfig::default(), &frames);
    assert_eq!(
        serial, 0,
        "steady-state serial encode_frame_into must not allocate ({serial} allocations in one frame)"
    );

    let slices = OptConfig {
        slices: 2,
        ..OptConfig::default()
    };
    let sliced = max_allocs_per_frame(slices, &frames);
    assert_eq!(
        sliced, 0,
        "steady-state 2-slice encode_frame_into must not allocate ({sliced} allocations in one frame)"
    );
}
