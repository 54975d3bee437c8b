//! A walkthrough of the redundancy queue — the paper's Figure 1, live.
//!
//! Run with:
//! ```text
//! cargo run --release --example queue_walkthrough
//! ```
//!
//! Reproduces the queue-state evolution of the paper's Fig. 1 for a
//! checkpointing interval T, showing for every iteration which search
//! directions are stored redundantly in the cluster and how far the solver
//! would have to roll back if a node failure struck at that moment — and
//! why the queue needs *three* slots, not two.

use esrcg::core::queue::{Capture, RedundancyQueue};

fn fmt_queue(q: &RedundancyQueue) -> String {
    let mut cells: Vec<String> = q.iters().iter().map(|j| format!("p'({j})")).collect();
    while cells.len() < 3 {
        cells.insert(0, "_".to_string());
    }
    format!("[{}]", cells.join(", "))
}

fn main() {
    let t = 5usize; // the paper draws T in the abstract; we use T = 5
    println!("ESRP redundancy queue evolution, T = {t} (paper Fig. 1)\n");
    println!("{:>4}  {:<22} {:>10}  note", "j", "queue", "rollback");

    let mut q = RedundancyQueue::new();
    for j in 0..=(2 * t + 2) {
        // Alg. 3: ASpMV at j ≡ 0 (mod T), j >= T and j ≡ 1 (mod T), j >= T+1.
        let is_first = j % t == 0 && j >= t;
        let is_second = j % t == 1 && j > t;
        if is_first || is_second {
            q.push(j, Capture::default());
        }

        // The newest consecutive pair is the ĵ a recovery reconstructs: the
        // last complete storage stage (mT, mT+1) with mT + 1 <= j.
        let stage = (j >= 1 && (j - 1) / t >= 1).then(|| (j - 1) / t * t + 1);
        assert_eq!(q.latest_consecutive_pair(), stage, "queue and stages agree");
        let rollback = stage
            .map(|jh| jh.to_string())
            .unwrap_or_else(|| "restart".to_string());

        let note = if is_first {
            "storage stage begins: ASpMV pushes, β** stashed"
        } else if is_second {
            "storage stage ends: ASpMV pushes, x*,r*,z*,p* copied, β* ← β**"
        } else if j < t {
            "regular SpMV (no redundancy yet)"
        } else {
            "regular SpMV"
        };
        println!("{j:>4}  {:<22} {:>10}  {note}", fmt_queue(&q), rollback);
    }

    println!(
        "\nWhy three slots: at j = {}, the queue holds p'({}), p'({}), p'({}).",
        2 * t,
        t,
        t + 1,
        2 * t
    );
    println!(
        "The newest two are NOT consecutive — a failure here must fall back to \
         iteration {} using the two oldest slots. With only two slots that pair \
         would already have been evicted and the solver would have to restart \
         from scratch.",
        t + 1
    );
}
