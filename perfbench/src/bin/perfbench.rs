//! End-to-end run: tracing off, system allocator.
//!
//! Usage: `perfbench --workload NAME --seed N --seconds T [--rev REV]`.

fn main() {
    let result = mwc_perfbench::Args::parse(std::env::args().skip(1))
        .and_then(|args| mwc_perfbench::run(&args, false));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
