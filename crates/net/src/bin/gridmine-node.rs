//! One grid resource as one OS process.
//!
//! Usage: `gridmine-node <spec.json>` — the spec is written by the hub
//! (`NetSession`); see `gridmine_net::spec::NodeSpec` for the contract.
//! Exit codes are part of that contract: 0 for a clean finish (or a
//! scheduled departure), `EXIT_CRASHED` for a scheduled crash-wipe,
//! `EXIT_ORPHANED` when the hub goes silent, `EXIT_FAILED` otherwise.

// No panic on hostile input; replay-deterministic and crash-safe (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use gridmine_net::node;
use gridmine_net::NodeSpec;
use gridmine_paillier::{MockCipher, PaillierCtx};

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: gridmine-node <spec.json>");
        std::process::exit(node::EXIT_FAILED);
    };
    let json = match std::fs::read_to_string(&path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("gridmine-node: reading {path}: {e}");
            std::process::exit(node::EXIT_FAILED);
        }
    };
    let spec: NodeSpec = match serde_json::from_str(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gridmine-node: parsing {path}: {e}");
            std::process::exit(node::EXIT_FAILED);
        }
    };
    let code = match spec.cipher.as_str() {
        "paillier" => node::run::<PaillierCtx>(&spec),
        _ => node::run::<MockCipher>(&spec),
    };
    std::process::exit(code);
}
