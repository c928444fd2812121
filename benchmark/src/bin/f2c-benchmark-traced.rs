//! The traced binary: the same code behind a counting `#[global_allocator]`.
//! `run.sh` picks it for `--trace 1` and the `trace` subcommand.

use f2c_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    std::process::exit(f2c_benchmark::cli::main(true));
}
