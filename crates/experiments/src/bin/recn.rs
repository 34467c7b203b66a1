//! `recn` — the reproduction's one front door; see [`experiments::cli`].

fn main() {
    if let Err(e) = experiments::cli::run(std::env::args().skip(1)) {
        eprintln!("{e}");
        std::process::exit(2);
    }
}
