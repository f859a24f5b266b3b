//! Allocation pins.
//!
//! The simulator: with a warm [`SimScratch`], one `simulate_opts`
//! allocates a fixed number of times, whatever the number of cycles it
//! simulates. gemm (f32, team 8) at 512 B and at 32 KiB lowers to programs
//! of the same shape whose runs differ ~40x in cycles. Both runs must
//! allocate equally: a per-cycle or per-op allocation breaks the tie, and
//! so does decoding into fresh buffers instead of the scratch's, because
//! the two programs' decoded streams differ in length.
//!
//! The periodic loop skip records, keeps and replays loop iterations in
//! buffers the scratch keeps between runs: a warm run that takes period
//! skips allocates exactly what a warm run of a loop-free program does.
//!
//! The JSON parse: a parse frees nothing, because every block it allocates
//! is in the tree it returns, and a typed load moves its strings out of
//! that tree. A copy of the tree, or of a string in it, frees blocks. A
//! journal line decodes with the allocations of its parse alone: its
//! strings move out of the tree.
//!
//! A counting `#[global_allocator]` lives in this test binary only, so it
//! costs the library nothing. It counts per thread, so the harness's other
//! threads do not leak into a count.

use kernel_ir::{lower, DType};
use pulp_energy::SweepCache;
use pulp_energy_model::{DynamicFeatures, EnergyModel, EnergySummary};
use pulp_kernels::{registry, KernelParams};
use pulp_obs::JournalEvent;
use pulp_sim::{
    simulate_opts, ClusterConfig, NoTelemetry, NullSink, OpKind, Program, SegOp, SimOptions,
    SimScratch, SimStats,
};
use serde::{Deserialize, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread::LocalKey;

struct Counting;

thread_local! {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// `dealloc` calls.
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn count(counter: &'static LocalKey<Cell<u64>>) {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

/// The result of `f`, with the allocations and the frees it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let read = || (ALLOCATIONS.with(Cell::get), FREES.with(Cell::get));
    let (allocs, frees) = read();
    let out = f();
    let (allocs_after, frees_after) = read();
    (out, allocs_after - allocs, frees_after - frees)
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System`'s guarantees are this allocator's; counting touches only
// const-initialised thread locals, which do not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATIONS);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATIONS);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&ALLOCATIONS);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(&FREES);
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
    let (allocs, stats) = counted_run(config, program, scratch);
    (allocs, stats.cycles)
}

/// Allocations of one run of `program` on `scratch`, and its stats.
fn counted_run(
    config: &ClusterConfig,
    program: &Program,
    scratch: &mut SimScratch,
) -> (u64, SimStats) {
    let (stats, allocs, _) = counted(|| {
        simulate_opts(
            config,
            program,
            &SimOptions::default(),
            &mut NullSink,
            &mut NoTelemetry,
            scratch,
        )
        .expect("the program simulates")
    });
    (allocs, stats)
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

#[test]
fn period_skips_allocate_nothing_once_warm() {
    let config = ClusterConfig::default();
    let looped = gemm(8 * 1024, &config);
    let straight = Program::new(vec![
        vec![
            SegOp::Instr {
                kind: OpKind::Alu,
                addr: None,
            };
            4
        ];
        8
    ]);
    let mut scratch = SimScratch::new();
    counted_run(&config, &looped, &mut scratch);
    let (looped_allocs, stats) = counted_run(&config, &looped, &mut scratch);
    assert!(
        stats.fast_forward.periods > 0,
        "the pin needs period skips: {:?}",
        stats.fast_forward
    );
    let (straight_allocs, _) = counted_run(&config, &straight, &mut scratch);
    assert_eq!(
        looped_allocs, straight_allocs,
        "a warm run with {} period skips allocates {looped_allocs} times, \
         a loop-free one {straight_allocs}",
        stats.fast_forward.periods
    );
}

#[test]
fn a_journal_line_decodes_without_copying_its_strings() {
    let line = r#"{"v":1,"seq":3,"run":"sim-0123456789abcdef","ev":"stage_end","stage":"labeling","wall_ms":12.5}"#;
    let (tree, tree_allocs, _) = counted(|| serde_json::from_str::<Value>(line).expect("parses"));
    drop(tree);
    let (decoded, allocs, _) = counted(|| JournalEvent::from_line(line).expect("decodes"));
    let (seq, run, event) = decoded;
    assert_eq!((seq, run.as_str()), (3, "sim-0123456789abcdef"));
    assert_eq!(
        event,
        JournalEvent::StageEnd {
            stage: "labeling".into(),
            wall_ms: 12.5
        }
    );
    assert_eq!(
        allocs, tree_allocs,
        "decoding allocated {allocs} times; its parse alone allocates {tree_allocs}"
    );
}

/// The 32-item `/predict/batch` body `bench serve` sends
/// (`serve_bench::mix_bodies("batch", 32)`): the quick kernel set, cycled.
fn batch_body() -> String {
    const KERNELS: [&str; 8] = [
        "gemm",
        "fir",
        "vec_scale",
        "fpu_storm",
        "bank_hammer",
        "reduction_critical",
        "compute_dense",
        "l2_stream",
    ];
    let items: Vec<String> = (0..32)
        .map(|i| {
            let kernel = KERNELS[i % KERNELS.len()];
            format!("{{\"kernel\": \"{kernel}\", \"dtype\": \"i32\", \"size\": 2048}}")
        })
        .collect();
    format!("{{\"requests\": [{}]}}", items.join(","))
}

#[test]
fn a_parse_keeps_every_block_it_allocates() {
    let body = batch_body();
    let (tree, allocs, frees) =
        counted(|| serde_json::from_str::<Value>(&body).expect("body parses"));
    let (_, _, blocks) = counted(|| drop(tree));
    assert!(blocks > 32, "the tree holds {blocks} blocks");
    assert_eq!(
        frees, 0,
        "the parse made {allocs} allocations and freed {frees} of them; \
         its tree holds {blocks} blocks"
    );
}

/// A sweep-cache entry, typed.
#[derive(Deserialize)]
struct CacheEntry {
    version: String,
    sample: String,
    summaries: Vec<EnergySummary>,
}

#[test]
fn a_typed_load_moves_its_strings_out_of_the_tree() {
    let dir = std::env::temp_dir().join(format!("pulp-alloc-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = SweepCache::new(&dir).expect("open cache");
    let key = cache.key(
        "fir/i32/2048",
        &ClusterConfig::default(),
        &EnergyModel::table1(),
    );
    let summaries: Vec<EnergySummary> = (1..=8)
        .map(|cores| EnergySummary {
            cores,
            energy_fj: 1000.0 * cores as f64 + 0.125,
            cycles: 10_000 / cores as u64,
            dynamic: DynamicFeatures::extract(&SimStats::default()),
        })
        .collect();
    cache.store(&key, &summaries);
    let text = std::fs::read_to_string(dir.join(key.file_name())).expect("entry written");
    let _ = std::fs::remove_dir_all(&dir);

    let (tree, _, _) = counted(|| serde_json::from_str::<Value>(&text).expect("entry parses"));
    let (_, _, blocks) = counted(|| drop(tree));
    let (entry, _, frees) =
        counted(|| serde_json::from_str::<CacheEntry>(&text).expect("entry loads"));
    assert_eq!(entry.sample, key.sample());
    assert!(!entry.version.is_empty());
    assert_eq!(entry.summaries, summaries);
    // Every block of the tree is freed but the two strings the entry keeps.
    assert_eq!(
        frees,
        blocks - 2,
        "the typed load freed {frees} blocks; its tree holds {blocks}"
    );
}
