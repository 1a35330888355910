fn main() {
    std::process::exit(emba_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
