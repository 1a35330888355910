//! Passes the compiler flags this build saw to the program, for the `env`
//! block of every output (`.cargo/config.toml` flags never reach a process
//! environment otherwise).

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    println!("cargo:rustc-env=EMBA_BENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
