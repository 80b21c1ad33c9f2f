//! *Majority-Rule* — the plain, non-private distributed ARM protocol of
//! §4.1 (Wolff & Schuster, ICDM'03) that Secure-Majority-Rule wraps in
//! oblivious counters and a k-gate. It lives here as the reference
//! oracle of the differential test: same tree, same partitions, same
//! λ/γ, and the secure grid must decide what this one decides.
//!
//! Two layers:
//!
//! * [`scalable`] — *Scalable-Majority*: the local majority-voting protocol
//!   over the communication tree. Each node keeps, per neighbor, the last
//!   pair ⟨sum, count⟩ sent and received, and forwards its aggregate only
//!   when the pairwise view and its own view disagree about the majority.
//!   The vote rule is core's [`gridmine_core::sfe::majority_send_cond`],
//!   the one the controller evaluates under the SFE.
//! * [`rule`] — *Majority-Rule*: the reduction of distributed ARM to one
//!   majority vote per candidate rule, over core's
//!   [`gridmine_core::CandidateGenerator`].

pub mod rule;
pub mod scalable;

mod properties;

use gridmine_topology::{spanning_tree, Graph, Tree};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Random tree built from a random Prüfer-like parent assignment.
pub fn random_tree(n: usize, seed: u64) -> Tree {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut g = Graph::with_nodes(n);
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        g.add_edge(parent, v);
    }
    spanning_tree(&g, 0)
}
