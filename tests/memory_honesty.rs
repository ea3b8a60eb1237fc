//! The cache's byte model must describe real memory: for seeded compiles
//! on the congested and the 4x chip, `estimate_outcome_bytes` stays within
//! ±25% of the heap bytes a clone of the outcome actually allocates.
//!
//! A counting `#[global_allocator]` measures the clone, so this file is
//! its own test binary. The counters are per thread, so tests running in
//! parallel never see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ecmas::cache::estimate_outcome_bytes;
use ecmas::{CompileOutcome, Ecmas};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::random;

struct Counting;

thread_local! {
    // Net bytes allocated by this thread. `const` init: reading it never
    // allocates, so the allocator can use it.
    static NET: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: usize, sign: i64) {
    // `try_with` fails only during thread teardown; those bytes are not
    // part of any measurement.
    let _ = NET.try_with(|net| net.set(net.get() + sign * bytes as i64));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the wrapper only updates a thread-local counter. The
// default `alloc_zeroed` and `realloc` go through these two methods, so
// they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(layout.size(), -1);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes a clone of `outcome` allocates — what one more resident
/// copy of it costs.
fn cloned_heap_bytes(outcome: &CompileOutcome) -> u64 {
    let before = NET.with(Cell::get);
    let copy = outcome.clone();
    let after = NET.with(Cell::get);
    drop(copy);
    u64::try_from(after - before).expect("a clone never frees more than it allocates")
}

/// Compiles seeded layered circuits on `chip_for(qubits)` and checks the
/// model against each outcome's cloned heap bytes.
fn check_model(label: &str, chip_for: impl Fn(usize) -> Chip) {
    for seed in 0..6u64 {
        let qubits = 12 + 4 * (seed as usize % 4);
        let depth = 40 + 20 * (seed as usize % 3);
        let parallelism = 2 + seed as usize % (qubits / 4);
        let circuit = random::layered(qubits, depth, parallelism, 0x5EED ^ seed);
        let outcome = Ecmas::default().compile_auto(&circuit, &chip_for(qubits)).unwrap();
        let real = cloned_heap_bytes(&outcome);
        let model = estimate_outcome_bytes(&outcome);
        let ratio = model as f64 / real as f64;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "{label} seed {seed} ({qubits}q, depth {depth}, {} events): model {model} B vs \
             real {real} B (ratio {ratio:.3})",
            outcome.encoded.events().len()
        );
    }
}

#[test]
fn byte_model_matches_real_heap_on_the_congested_chip() {
    check_model("congested", |q| Chip::congested(CodeModel::LatticeSurgery, q, 3).unwrap());
}

#[test]
fn byte_model_matches_real_heap_on_the_4x_chip() {
    check_model("4x", |q| Chip::four_x(CodeModel::LatticeSurgery, q, 3).unwrap());
}
