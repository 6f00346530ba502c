//! Per-layer run: every solve traced in memory, span profiling on, and
//! allocations counted.
//!
//! Usage: `perfbench-traced --workload NAME --seed N --seconds T [--rev REV]`.

#[global_allocator]
static ALLOC: mwc_trace::profile::CountingAlloc = mwc_trace::profile::CountingAlloc;

fn main() {
    let result = mwc_perfbench::Args::parse(std::env::args().skip(1))
        .and_then(|args| mwc_perfbench::run(&args, true));
    if let Err(e) = result {
        eprintln!("perfbench-traced: {e}");
        std::process::exit(2);
    }
}
