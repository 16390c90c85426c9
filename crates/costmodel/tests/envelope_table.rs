//! The process-wide envelope table is shared by racing threads and
//! bounded. One test: nothing else may touch the table while it counts.

use intercom_cost::select::envelope;
use intercom_cost::{
    choose_flat, rank_strategies, CollectiveOp, CostContext, GroupShape, MachineParams,
};
use std::sync::{Arc, Barrier};

#[test]
fn one_build_is_shared_and_the_table_stays_bounded() {
    let op = CollectiveOp::Collect;
    let m = MachineParams::PARAGON;
    let get = || envelope(op, GroupShape::Linear(60), &m, CostContext::LINEAR);

    // Eight threads race on the cold key: all leave with the envelope
    // the table kept, and the table keeps exactly one.
    let barrier = Barrier::new(8);
    let race = || {
        barrier.wait();
        get()
    };
    let racers: Vec<_> = std::thread::scope(|s| {
        let spawned: Vec<_> = (0..8).map(|_| s.spawn(race)).collect();
        spawned.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(racers.iter().all(|e| Arc::ptr_eq(e, &racers[0])));
    assert_eq!(Arc::strong_count(&racers[0]), 8 + 1);
    let first = racers.into_iter().next().unwrap();

    // A refit loop mints a new key per step: the table lets go of old
    // envelopes (here `first`) after a bounded number, changing no answer.
    let mut refits = 0;
    while Arc::strong_count(&first) > 1 {
        refits += 1;
        assert!(refits < 100_000, "the table grows without limit");
        let refit = m.refit(m.alpha * (1.0 + refits as f64 * 1e-3), m.beta);
        let ctx = CostContext::linear_with(&refit);
        for n in [8, 20_000, 1 << 20] {
            let want = rank_strategies(op, 12, n, &refit, ctx, 0).swap_remove(0);
            let got = choose_flat(op, GroupShape::Linear(12), n, &refit);
            assert_eq!(got, want.strategy);
        }
    }
    let rebuilt = get();
    assert!(!Arc::ptr_eq(&rebuilt, &first));
    assert!(rebuilt.intervals().eq(first.intervals()));
}
