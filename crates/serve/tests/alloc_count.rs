//! Bounds the heap allocations of one fleet session frame. After an
//! 8-frame warm-up, no [`Session::step_frame`] call of a 16-session fleet
//! may allocate more than the bound pinned here, on the default fleet and
//! on the burst-channel fleet with adaptive Reed–Solomon parity. The
//! encoder's own steady state allocates nothing (`pbpair-codec`'s
//! `alloc_count`); a session frame still allocates its source frame, its
//! encoded frame, its packets and parity, the survivors, the reassembled
//! bytes and the decoded picture. The bounds are the most any measured
//! frame allocated when they were pinned, so a new per-frame allocation
//! in the session loop fails here.
//!
//! This file intentionally contains a **single** test: the allocation
//! counter is process-global, and a sibling test running concurrently
//! would pollute the count. Sessions step on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pbpair_netsim::{ChannelSpec, FecSpec};
use pbpair_serve::{DeviceMix, RedundancyConfig, ServeConfig, Session};

/// Counts every allocation and reallocation.
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

const SESSIONS: u32 = 16;
const WARMUP_FRAMES: usize = 8;
const FRAMES: usize = 32;

/// The default fleet, 16 sessions deep.
fn default_fleet() -> ServeConfig {
    ServeConfig {
        sessions: SESSIONS as usize,
        frames: FRAMES,
        ..ServeConfig::default()
    }
}

/// The burst-erasure fleet with adaptive RS{8,2} parity at MTU 36 (about
/// 8 fragments per frame, one RS block) and no corruption.
fn burst_fec_fleet() -> ServeConfig {
    ServeConfig {
        channel: Some(ChannelSpec::BurstErasure {
            burst_len: 4.0,
            guard_len: 28.0,
        }),
        redundancy: Some(RedundancyConfig {
            family: FecSpec::Rs { k: 8, r: 2 },
            max_parity: 2,
            budget_ratio: 1.25,
            gop: 8,
        }),
        mtu: 36,
        corruption: 0.0,
        device_mix: DeviceMix::Alternating,
        ..default_fleet()
    }
}

/// Steps every session of `cfg` through `FRAMES` frames and returns the
/// most allocations one post-warm-up `step_frame` call made, and the
/// mean per post-warm-up frame.
fn allocs_per_session_frame(cfg: &ServeConfig) -> (u64, f64) {
    let (mut worst, mut total, mut frames) = (0, 0, 0);
    for id in 0..SESSIONS {
        let mut session = Session::new(cfg, id).expect("valid fleet");
        for _ in 0..WARMUP_FRAMES {
            session.step_frame();
        }
        for _ in WARMUP_FRAMES..FRAMES {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let outcome = session.step_frame();
            let spent = ALLOCATIONS.load(Ordering::SeqCst) - before;
            assert!(outcome.encoded, "sanity: the frame was encoded");
            worst = worst.max(spent);
            total += spent;
            frames += 1;
        }
    }
    (worst, total as f64 / frames as f64)
}

#[test]
fn a_session_frame_allocates_within_its_bound() {
    for (name, cfg, bound) in [
        ("default fleet", default_fleet(), 22),
        ("burst-fec fleet", burst_fec_fleet(), 334),
    ] {
        let (worst, mean) = allocs_per_session_frame(&cfg);
        eprintln!("{name}: at most {worst} allocations per session frame, {mean:.1} on average");
        assert!(
            worst <= bound,
            "{name}: a session frame made {worst} allocations, over the bound of {bound}"
        );
    }
}
