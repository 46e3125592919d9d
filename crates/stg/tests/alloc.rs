//! Proves the packed-marking hot path performs zero per-state heap
//! allocations for safe nets with ≤ 64 places.
//!
//! A counting global allocator wraps `System`; the test plays thousands
//! of transition firings through `is_enabled_packed` /
//! `fire_packed_into` and asserts the allocation counter never moves.
//! (Whole-exploration allocation is amortized — table growth — so the
//! guarantee that matters, and the one the ISSUE pins, is that *firing
//! and interning an already-seen state* allocates nothing.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

use rt_stg::marking::{MarkingArena, MarkingLayout, PackedMarking};
use rt_stg::models;

// This target runs without the libtest harness (`harness = false` in
// Cargo.toml): the counter is process-global, so even the harness's own
// bookkeeping threads would bleed allocations into the measured regions.
fn main() {
    firing_safe_net_transitions_never_allocates();
    interning_known_markings_never_allocates();
    println!("alloc: ok (packed hot path performed zero heap allocations)");
}

fn firing_safe_net_transitions_never_allocates() {
    let stg = models::fifo_stg();
    let net = stg.net();
    assert!(
        net.place_count() <= 64,
        "fifo model must fit the inline word"
    );

    let layout = MarkingLayout::new(net.place_count());
    let mut current = PackedMarking::pack(&layout, &stg.initial_marking());
    let mut scratch = PackedMarking::zero(&layout);

    // Warm up (first enabled-scan may lazily touch nothing, but keep the
    // measured region clean of one-time effects).
    for t in net.transitions() {
        std::hint::black_box(net.is_enabled_packed(t, &current, &layout));
    }

    let before = allocation_count();
    let mut fired = 0u32;
    while fired < 10_000 {
        let mut advanced = false;
        for t in net.transitions() {
            if net.is_enabled_packed(t, &current, &layout) {
                net.fire_packed_into(t, &current, &layout, &mut scratch)
                    .expect("safe net stays within bound");
                std::mem::swap(&mut current, &mut scratch);
                fired += 1;
                advanced = true;
                break;
            }
        }
        assert!(
            advanced,
            "fifo spec is live; some transition is always enabled"
        );
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "firing {fired} transitions on a ≤64-place safe net must not allocate"
    );
}

fn interning_known_markings_never_allocates() {
    let stg = models::fifo_stg();
    let net = stg.net();
    let layout = MarkingLayout::new(net.place_count());
    // Pre-size generously so the measured region cannot trigger growth.
    let mut arena = MarkingArena::with_capacity(layout, 1 << 12);
    let mut current = PackedMarking::pack(&layout, &stg.initial_marking());
    let mut scratch = PackedMarking::zero(&layout);

    // First pass: discover a cycle's worth of markings (may allocate in
    // the items vector, amortized).
    let mut trail = Vec::new();
    for _ in 0..64 {
        arena.intern(current.clone());
        trail.push(current.clone());
        let t = net
            .transitions()
            .find(|&t| net.is_enabled_packed(t, &current, &layout))
            .expect("live spec");
        net.fire_packed_into(t, &current, &layout, &mut scratch)
            .expect("safe");
        std::mem::swap(&mut current, &mut scratch);
    }

    // Second pass: every marking is already interned; lookups must be
    // allocation-free.
    let before = allocation_count();
    for m in &trail {
        let (_, fresh) = arena.intern_ref(m);
        assert!(!fresh, "second pass only revisits known markings");
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "re-interning known markings must not allocate"
    );
}
