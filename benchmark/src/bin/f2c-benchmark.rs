//! The plain binary: default allocator, so end-to-end numbers never pass
//! through the counting one. `run.sh` picks it for everything but tracing.

fn main() {
    std::process::exit(f2c_benchmark::cli::main(false));
}
