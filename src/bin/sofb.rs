//! `sofb` — run data-driven scenario specs. See `sofbyz::cli`.

use std::process::exit;

use sofbyz::cli::{self, CliError};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::execute(&args) {
        Ok(out) => print!("{out}"),
        Err(e @ CliError::Usage(_)) => {
            eprintln!("error: {e}");
            exit(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            // --check drift and spec/scenario defects exit 1.
            exit(1);
        }
    }
}
