//! Ablation: which ingredient of relative timing buys what?
//!
//! Sweeps the flow configuration over the FIFO and the corpus
//! controllers: no assumptions (SI), automatic only, user only, both;
//! early enabling on/off — reporting states, literals, transistors and
//! constraint counts for each cell of the grid.
//!
//! ```text
//! cargo run --release -p rt-bench --bin ablation_assumptions
//! ```

use rt_core::{RtAssumption, RtSynthesisFlow};
use rt_stg::{corpus, models, Edge, Stg};

fn user_set(stg: &Stg) -> Vec<RtAssumption> {
    // The ring assumptions apply to the FIFO interface only.
    match (stg.signal_by_name("ri"), stg.signal_by_name("li")) {
        (Some(ri), Some(li)) => vec![
            RtAssumption::user(ri, Edge::Fall, li, Edge::Rise),
            RtAssumption::user(li, Edge::Fall, ri, Edge::Fall),
        ],
        _ => Vec::new(),
    }
}

fn run_cell(stg: &Stg, auto: bool, early: usize, user: &[RtAssumption]) -> String {
    let flow = RtSynthesisFlow {
        auto_assumptions: auto,
        early_enable_depth: early,
        max_state_signals: 3,
    };
    match flow.run(stg, user) {
        Ok(r) => format!(
            "{:>6} {:>6} {:>6} {:>6}",
            r.lazy_states,
            r.synthesis.literal_count,
            r.synthesis.netlist.transistor_count(),
            r.constraints.len()
        ),
        Err(_) => format!("{:>6} {:>6} {:>6} {:>6}", "-", "-", "-", "-"),
    }
}

fn main() {
    println!("== Ablation: assumption classes and early enabling ==");
    println!("   (columns: lazy states | literals | transistors | constraints)\n");
    let corpus_specs: Vec<(String, Stg)> = corpus::all()
        .into_iter()
        .filter(|(name, _)| *name != "arbiter2")
        .map(|(name, text)| (name.to_string(), corpus::parse(text).expect("parses")))
        .collect();
    let mut specs: Vec<(String, Stg)> = vec![("fifo".to_string(), models::fifo_stg())];
    specs.extend(corpus_specs);

    for (name, stg) in &specs {
        let user = user_set(stg);
        println!("---- {name} ----");
        println!(
            "SI   (none)              : {}",
            run_cell(stg, false, 0, &[])
        );
        println!("auto only                : {}", run_cell(stg, true, 0, &[]));
        println!("auto + early enable      : {}", run_cell(stg, true, 1, &[]));
        if !user.is_empty() {
            println!(
                "user only                : {}",
                run_cell(stg, false, 0, &user)
            );
            println!(
                "user + auto + early      : {}",
                run_cell(stg, true, 1, &user)
            );
        }
        println!();
    }
}
