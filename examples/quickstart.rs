//! Quickstart: verify linearizability and lock-freedom of the Treiber
//! stack in a dozen lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bbverify::algorithms::{specs::SeqStack, treiber::Treiber};
use bbverify::core::{verify_case, VerifyConfig};
use bbverify::sim::{AtomicSpec, Bound};

fn main() -> Result<(), bbverify::lts::Exhausted> {
    // The object under test: Treiber's lock-free stack, clients pushing 1/2.
    let algorithm = Treiber::new(&[1, 2]);
    // Its linearizable specification: a sequential stack, one atomic block
    // per method (Section II-C of the paper).
    let spec = AtomicSpec::new(SeqStack::new(&[1, 2]));

    // Most general client: 2 threads × 2 operations each.
    let config = VerifyConfig::new(Bound::new(2, 2));
    let report = verify_case(&algorithm, &spec, config)?;

    println!("algorithm        : {}", report.name);
    println!(
        "bound            : {} threads × {} ops",
        report.bound.threads, report.bound.ops_per_thread
    );
    println!("|Δ|              : {}", report.linearizability.impl_states);
    println!(
        "|Δ/≈|            : {}  (reduction ×{:.1})",
        report.linearizability.impl_quotient_states,
        report.linearizability.reduction_factor()
    );
    println!("linearizable     : {}", report.linearizable());
    println!("lock-free        : {}", report.lock_free());
    assert!(report.linearizable() && report.lock_free());
    Ok(())
}
