//! Automatic bug hunting (Section VI-F): the three violations the paper's
//! technique finds, each with a machine-generated counterexample.
//!
//! * HW queue — the dequeue loop diverges (lock-freedom, Table V, Fig. 9);
//! * Treiber stack + revised hazard pointers (Fu et al.) — the *new* bug:
//!   the reclaiming thread waits on another thread's hazard pointer
//!   forever (lock-freedom);
//! * HM lock-free list, first printing — the *known* bug: two concurrent
//!   `remove(k)` both return `true` (linearizability).
//!
//! ```sh
//! cargo run --release --example bug_hunt
//! ```

use bbverify::algorithms::{
    hm_list::HmList, hw_queue::HwQueue, specs::{SeqQueue, SeqSet, SeqStack},
    treiber_hp_fu::TreiberHpFu,
};
use bbverify::core::{verify_case, VerifyConfig};
use bbverify::lts::Lts;
use bbverify::sim::{explore_system, AtomicSpec, Bound};

/// Renders a divergence lasso in the CADP style of Fig. 9.
fn print_lasso(lts: &Lts, lasso: &bbverify::bisim::Lasso) {
    for line in bbverify::core::format_lasso(lts, lasso).lines() {
        println!("   {line}");
    }
}

fn main() -> Result<(), bbverify::lts::Exhausted> {
    println!("=== bug 1: HW queue is not lock-free (3 threads, 1 op) ===");
    let bound = Bound::new(3, 1);
    let hw = HwQueue::for_bound(&[1], 3, 1);
    let report = verify_case(
        &hw,
        &AtomicSpec::new(SeqQueue::new(&[1])),
        VerifyConfig::new(bound),
    )?;
    println!("linearizable: {}", report.linearizable());
    let lf = report.lock_freedom.as_ref().unwrap();
    println!("lock-free   : {}", lf.lock_free);
    if let Some(lasso) = &lf.divergence {
        let lts = explore_system(&hw, bound)?;
        print_lasso(&lts, lasso);
    }

    println!("\n=== bug 2 (new): Treiber + HP, revised reclamation (2 threads) ===");
    let bound = Bound::new(2, 2);
    let fu = TreiberHpFu::new(&[1], 2);
    let report = verify_case(
        &fu,
        &AtomicSpec::new(SeqStack::new(&[1])),
        VerifyConfig::new(bound),
    )?;
    println!("linearizable: {}", report.linearizable());
    let lf = report.lock_freedom.as_ref().unwrap();
    println!("lock-free   : {}", lf.lock_free);
    if let Some(lasso) = &lf.divergence {
        let lts = explore_system(&fu, bound)?;
        println!("the error path ends in a self-loop re-reading the other");
        println!("thread's hazard pointer (tag F7):");
        print_lasso(&lts, lasso);
    }

    println!("\n=== bug 3 (known): HM lock-free list, first printing (2 threads) ===");
    let report = verify_case(
        &HmList::buggy(&[1]),
        &AtomicSpec::new(SeqSet::new(&[1])),
        VerifyConfig::new(Bound::new(2, 2)),
    )?;
    println!("linearizable: {}", report.linearizable());
    if let Some(v) = &report.linearizability.violation {
        println!("shortest non-linearizable history (removes the same item twice):");
        println!("   {}", v.to_pretty());
    }

    println!("\nAll counterexamples were generated with two or three threads,");
    println!("demonstrating the bug-hunting potential of the approach.");
    Ok(())
}
