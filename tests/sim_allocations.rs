//! Allocation pin for the simulator: with a warm [`SimScratch`], one
//! `simulate_opts` allocates a fixed number of times, whatever the number
//! of cycles it simulates.
//!
//! gemm (f32, team 8) at 512 B and at 32 KiB lowers to programs of the
//! same shape whose runs differ ~40x in cycles. Both runs must allocate
//! equally: a per-cycle or per-op allocation breaks the tie, and so does
//! decoding into fresh buffers instead of the scratch's, because the two
//! programs' decoded streams differ in length.
//!
//! A counting `#[global_allocator]` lives in this test binary only, so it
//! costs the library nothing. It counts per thread, so the harness's other
//! threads do not leak into a count.

use kernel_ir::{lower, DType};
use pulp_kernels::{registry, KernelParams};
use pulp_sim::{
    simulate_opts, ClusterConfig, NoTelemetry, NullSink, Program, SimOptions, SimScratch,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System`'s guarantees are this allocator's; counting touches only a
// const-initialised thread local, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn gemm(payload_bytes: usize, config: &ClusterConfig) -> Program {
    let kernel = registry()
        .into_iter()
        .find(|d| d.name == "gemm")
        .expect("gemm in registry")
        .build(&KernelParams::new(DType::F32, payload_bytes))
        .expect("gemm instantiates");
    lower(&kernel, 8, config).expect("gemm lowers").program
}

/// Allocations of one run of `program` on `scratch`, and its cycles.
fn allocations(config: &ClusterConfig, program: &Program, scratch: &mut SimScratch) -> (u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let stats = simulate_opts(
        config,
        program,
        &SimOptions::default(),
        &mut NullSink,
        &mut NoTelemetry,
        scratch,
    )
    .expect("gemm simulates");
    (ALLOCATIONS.with(Cell::get) - before, stats.cycles)
}

#[test]
fn a_warm_run_allocates_the_same_whatever_its_length() {
    let config = ClusterConfig::default();
    let (small, large) = (gemm(512, &config), gemm(32 * 1024, &config));
    let mut scratch = SimScratch::new();
    // Warm the scratch on the larger program, so every buffer has room for
    // both.
    allocations(&config, &large, &mut scratch);
    let (small_allocs, small_cycles) = allocations(&config, &small, &mut scratch);
    let (large_allocs, large_cycles) = allocations(&config, &large, &mut scratch);
    assert!(
        large_cycles > 10 * small_cycles,
        "the pin needs runs of very different length: {small_cycles} vs {large_cycles} cycles"
    );
    assert_eq!(
        small_allocs, large_allocs,
        "allocations per warm run: {small_allocs} at {small_cycles} cycles, \
         {large_allocs} at {large_cycles} cycles"
    );
}
