//! "Exchanges of MP3 files for money in a P2P system" (§3): chunked file
//! deals, complaints stored in a real P-Grid overlay, trust computed from
//! queried complaint tallies — the full decentralised pipeline.
//!
//! ```text
//! cargo run --release --example p2p_file_market
//! ```

use trust_aware_cooperation::market::experiments::{e0_pipeline, e6_pgrid, Scale};
use trust_aware_cooperation::reputation::prelude::*;
use trustex_trust::model::PeerId;

fn main() {
    // A direct look at the storage layer first: build a grid, file a few
    // complaints, query them back.
    let mut system = ReputationSystem::new(128, 7);
    let cheater = PeerId(17);
    for victim in [2u32, 5, 9, 30, 44] {
        system.file_complaint(PeerId(victim), cheater, 0, None);
    }
    let tally = system
        .query_tally(PeerId(1), cheater, None)
        .expect("grid resolves");
    println!(
        "P-Grid tally for {cheater}: {} complaints received, {} filed ({} replicas, {} hops)",
        tally.received, tally.filed, tally.replicas, tally.hops
    );
    println!(
        "total storage messages so far: {}\n",
        system.network().total_sent()
    );

    // The E6 figure: message cost scales logarithmically, replication
    // rides out churn.
    println!("{}", e6_pgrid(Scale::Smoke).render());

    // And the E0 figure: the complete reference-model loop over this
    // substrate — completion rises and honest losses fall as complaints
    // accumulate.
    println!("{}", e0_pipeline(Scale::Smoke).render());
}
