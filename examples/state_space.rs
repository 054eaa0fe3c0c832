//! State-space reduction under ≈-quotienting (the Fig. 10 experiment in
//! miniature): fix 2 threads, vary operations, and watch the quotient stay
//! orders of magnitude smaller than the object system.
//!
//! ```sh
//! cargo run --release --example state_space [max_ops]
//! ```

use bbverify::algorithms::{ms_queue::MsQueue, treiber::Treiber, treiber_hp::TreiberHp};
use bbverify::bisim::{partition, quotient, Equivalence};
use bbverify::lts::ExploreOptions;
use bbverify::sim::{explore_system_with, Bound, ObjectAlgorithm};

fn sweep<A: ObjectAlgorithm>(name: &str, alg: &A, max_ops: u32) {
    println!("{name}: 2 threads, 1..={max_ops} ops");
    println!("{:>5} {:>12} {:>10} {:>10}", "#op", "|Δ|", "|Δ/≈|", "factor");
    for ops in 1..=max_ops {
        let bound = Bound::new(2, ops);
        let lts = match explore_system_with(alg, bound, &ExploreOptions::new()) {
            Ok(lts) => lts,
            Err(e) => {
                println!("{ops:>5} (exploration aborted: {e})");
                break;
            }
        };
        let p = partition(&lts, Equivalence::Branching);
        let q = quotient(&lts, &p);
        println!(
            "{ops:>5} {:>12} {:>10} {:>10.1}",
            lts.num_states(),
            q.lts.num_states(),
            lts.num_states() as f64 / q.lts.num_states() as f64
        );
    }
    println!();
}

fn main() {
    let max_ops: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    sweep("Treiber stack", &Treiber::new(&[1]), max_ops);
    sweep("Treiber stack + HP", &TreiberHp::new(&[1], 2), max_ops);
    sweep("MS lock-free queue", &MsQueue::new(&[1]), max_ops);
    println!("The ≈-quotient factor grows with the number of operations —");
    println!("the trend behind Fig. 10 of the paper.");
}
