//! Workspace integration tests: the full pipeline from synthetic data
//! through the secure distributed miner, compared against centralized
//! Apriori, over both ciphers.

use gridmine::prelude::*;
use gridmine::secure::resource::wire_grid;

/// Drives a vector of resources synchronously to quiescence with
/// interleaved candidate-generation rounds.
fn drive<C: HomCipher>(resources: &mut [SecureResource<C>], rounds: usize) {
    for _ in 0..rounds {
        let mut queue: Vec<WireMsg<C>> = Vec::new();
        for r in resources.iter_mut() {
            queue.extend(r.step(usize::MAX));
        }
        let mut hops = 0;
        while !queue.is_empty() {
            hops += 1;
            assert!(hops < 50_000, "no quiescence");
            let mut next = Vec::new();
            for msg in queue {
                let to = msg.to;
                next.extend(resources[to].on_receive(&msg));
            }
            queue = next;
        }
        let mut queue: Vec<WireMsg<C>> = Vec::new();
        for r in resources.iter_mut() {
            queue.extend(r.generate_candidates());
        }
        let mut hops = 0;
        while !queue.is_empty() {
            hops += 1;
            assert!(hops < 50_000, "no quiescence in generation");
            let mut next = Vec::new();
            for msg in queue {
                let to = msg.to;
                next.extend(resources[to].on_receive(&msg));
            }
            queue = next;
        }
    }
    for r in resources.iter_mut() {
        r.refresh_outputs();
    }
}

fn build_grid<C: HomCipher>(
    keys: &GridKeys<C>,
    dbs: Vec<Database>,
    min_freq: Ratio,
    min_conf: Ratio,
    k: i64,
    items: &[Item],
) -> Vec<SecureResource<C>> {
    // Path topology keeps the test deterministic and exercises multi-hop
    // aggregation.
    let tree = Tree::path(dbs.len());
    build_grid_on(keys, &tree, dbs, min_freq, min_conf, k, items)
}

fn build_grid_on<C: HomCipher>(
    keys: &GridKeys<C>,
    tree: &Tree,
    dbs: Vec<Database>,
    min_freq: Ratio,
    min_conf: Ratio,
    k: i64,
    items: &[Item],
) -> Vec<SecureResource<C>> {
    let generator = CandidateGenerator::new(min_freq, min_conf);
    let mut resources: Vec<SecureResource<C>> = dbs
        .into_iter()
        .enumerate()
        .map(|(u, db)| {
            let neighbors = tree.neighbors(u).collect();
            SecureResource::new(u, keys, neighbors, db, k, generator, items, 31 + u as u64)
        })
        .collect();
    wire_grid(&mut resources);
    resources
}

fn quest_partitions(n: usize, tx: usize) -> (Vec<Database>, Database, Vec<Item>) {
    let params =
        QuestParams::t5i2().with_transactions(tx).with_items(24).with_patterns(10).with_seed(77);
    let global = gridmine::quest::generate(&params);
    let parts = gridmine::quest::partition(&global, n, 5);
    let items = global.item_domain();
    (parts, global, items)
}

#[test]
fn secure_mining_matches_centralized_apriori_mock() {
    let (parts, global, items) = quest_partitions(5, 600);
    let min_freq = Ratio::from_f64(0.08);
    let min_conf = Ratio::from_f64(0.6);
    let keys = GridKeys::mock(3);
    let mut grid = build_grid(&keys, parts, min_freq, min_conf, 1, &items);
    drive(&mut grid, 8);

    let truth = correct_rules(&global, &AprioriConfig::new(min_freq, min_conf));
    assert!(!truth.is_empty(), "workload must produce rules");
    for r in &grid {
        let interim = r.interim();
        assert!(
            gridmine::arm::recall(&interim, &truth) > 0.999,
            "resource {} recall {} (interim {} vs truth {})",
            r.id(),
            gridmine::arm::recall(&interim, &truth),
            interim.len(),
            truth.len()
        );
        assert!(
            gridmine::arm::precision(&interim, &truth) > 0.999,
            "resource {} precision too low",
            r.id()
        );
        assert!(r.verdict().is_none());
    }
}

#[test]
fn paillier_and_mock_reach_identical_interim_solutions() {
    let (parts, _global, items) = quest_partitions(3, 120);
    let min_freq = Ratio::from_f64(0.15);
    let min_conf = Ratio::from_f64(0.6);

    let mock_keys = GridKeys::mock(3);
    let mut mock_grid = build_grid(&mock_keys, parts.clone(), min_freq, min_conf, 1, &items);
    drive(&mut mock_grid, 5);

    let paillier_keys = GridKeys::paillier(128, 3);
    let mut paillier_grid = build_grid(&paillier_keys, parts, min_freq, min_conf, 1, &items);
    drive(&mut paillier_grid, 5);

    for (m, p) in mock_grid.iter().zip(&paillier_grid) {
        assert_eq!(
            m.interim(),
            p.interim(),
            "cipher choice must not affect protocol decisions (resource {})",
            m.id()
        );
    }
}

#[test]
fn paillier_and_mock_agree_on_a_star_where_the_side_band_spills() {
    // Degree 3 at the hub: six side-band values, three ciphertexts at the
    // two slots a 128-bit key carries (two at the leaves), against one
    // per value under the mock.
    let (parts, _global, items) = quest_partitions(4, 120);
    let min_freq = Ratio::from_f64(0.15);
    let min_conf = Ratio::from_f64(0.6);
    let star = Tree::star(4);
    assert_eq!(star.neighbors(0).count(), 3);

    let mock_keys = GridKeys::mock(3);
    let mut mock_grid =
        build_grid_on(&mock_keys, &star, parts.clone(), min_freq, min_conf, 1, &items);
    drive(&mut mock_grid, 5);

    let paillier_keys = GridKeys::paillier(128, 3);
    let mut paillier_grid =
        build_grid_on(&paillier_keys, &star, parts, min_freq, min_conf, 1, &items);
    drive(&mut paillier_grid, 5);

    for (m, p) in mock_grid.iter().zip(&paillier_grid) {
        assert!(m.verdict().is_none() && p.verdict().is_none());
        assert!(!m.interim().is_empty(), "workload must produce rules");
        assert_eq!(m.interim(), p.interim(), "resource {} diverged between ciphers", m.id());
        assert_eq!(m.msgs_sent(), p.msgs_sent(), "resource {} sent differently", m.id());
        assert_eq!(m.queries_served(), p.queries_served());
    }
}

#[test]
fn privacy_parameter_gates_disclosure_by_grid_size() {
    // A 3-resource grid can satisfy k = 3 but not k = 4.
    let dbs: Vec<Database> = (0..3u64)
        .map(|u| {
            Database::from_transactions(
                (0..30).map(|j| Transaction::of(u * 30 + j, &[1])).collect(),
            )
        })
        .collect();
    let items = vec![Item(1)];
    for (k, expect_rules) in [(3i64, true), (4, false)] {
        let keys = GridKeys::mock(8);
        let mut grid =
            build_grid(&keys, dbs.clone(), Ratio::new(1, 2), Ratio::new(1, 2), k, &items);
        drive(&mut grid, 4);
        for r in &grid {
            assert_eq!(
                !r.interim().is_empty(),
                expect_rules,
                "k = {k}: resource {} interim = {:?}",
                r.id(),
                r.interim().sorted()
            );
        }
    }
}

#[test]
fn every_attack_class_is_detected_on_paillier_too() {
    // Real cryptography, tiny grid: each §5.2 attack ends in the expected
    // verdict.
    let (parts, _global, items) = quest_partitions(3, 60);
    let cases = [
        (BrokerBehavior::ArbitraryValue, Verdict::MaliciousBroker(1)),
        (BrokerBehavior::DoubleCount(0), Verdict::MaliciousBroker(1)),
        (BrokerBehavior::OmitNeighbor(0), Verdict::MaliciousBroker(1)),
    ];
    for (behavior, expect) in cases {
        let keys = GridKeys::paillier(128, 13);
        let mut grid =
            build_grid(&keys, parts.clone(), Ratio::from_f64(0.2), Ratio::from_f64(0.6), 1, &items);
        grid[1].set_broker_behavior(behavior);
        // Drive without asserting quiescence sanity (the halted resource
        // stops reacting).
        for _ in 0..3 {
            let mut queue: Vec<WireMsg<PaillierCtx>> = Vec::new();
            for r in grid.iter_mut() {
                queue.extend(r.step(usize::MAX));
            }
            while let Some(msg) = queue.pop() {
                let to = msg.to;
                queue.extend(grid[to].on_receive(&msg));
            }
            if grid[1].verdict().is_some() {
                break;
            }
        }
        assert_eq!(grid[1].verdict(), Some(expect), "behavior {behavior:?}");
    }
}

/// Builds a path grid with half of each partition held back, drives three
/// rounds, appends the rest, drives again, and returns (grid, truth).
fn dynamic_growth_run(relaxed: bool) -> (Vec<SecureResource<MockCipher>>, RuleSet) {
    let (parts, global, items) = quest_partitions(4, 400);
    let min_freq = Ratio::from_f64(0.1);
    let min_conf = Ratio::from_f64(0.6);
    let keys = GridKeys::mock(21);
    let generator = CandidateGenerator::new(min_freq, min_conf);

    let mut grids: Vec<SecureResource<MockCipher>> = Vec::new();
    let mut held: Vec<Vec<Transaction>> = Vec::new();
    let n = parts.len();
    for (u, db) in parts.into_iter().enumerate() {
        let txs = db.transactions().to_vec();
        let (initial, later) = txs.split_at(txs.len() / 2);
        held.push(later.to_vec());
        let mut neighbors = Vec::new();
        if u > 0 {
            neighbors.push(u - 1);
        }
        if u + 1 < n {
            neighbors.push(u + 1);
        }
        let mut r = SecureResource::new(
            u,
            &keys,
            neighbors,
            Database::from_transactions(initial.to_vec()),
            1,
            generator,
            &items,
            99 + u as u64,
        );
        if relaxed {
            r.set_gate_mode(gridmine::secure::GateMode::TransactionsOnly);
        }
        grids.push(r);
    }
    wire_grid(&mut grids);

    drive(&mut grids, 3);
    for (r, later) in grids.iter_mut().zip(held) {
        r.accountant_mut().append(later);
    }
    drive(&mut grids, 8);

    let truth = correct_rules(&global, &AprioriConfig::new(min_freq, min_conf));
    (grids, truth)
}

#[test]
fn dynamic_growth_tracks_exactly_under_relaxed_gate() {
    // With the k-transactions-only gate, later data keeps flowing into
    // fresh disclosures and the interim converges exactly.
    let (grids, truth) = dynamic_growth_run(true);
    for r in &grids {
        let interim = r.interim();
        assert!(
            gridmine::arm::recall(&interim, &truth) > 0.999
                && gridmine::arm::precision(&interim, &truth) > 0.999,
            "resource {} failed to track the grown database (recall {}, precision {})",
            r.id(),
            gridmine::arm::recall(&interim, &truth),
            gridmine::arm::precision(&interim, &truth),
        );
    }
}

/// Identical-distribution partitions for the observability tests:
/// deterministic ruleset, no data-dependent surprises.
fn uniform_dbs(n: u64) -> Vec<Database> {
    (0..n)
        .map(|u| {
            Database::from_transactions(
                (0..20)
                    .map(|j| {
                        let id = u * 20 + j;
                        if j % 4 == 0 {
                            Transaction::of(id, &[3])
                        } else {
                            Transaction::of(id, &[1, 2])
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn memory_recorder_counts_match_the_session_outcome() {
    let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
    let rec = MemoryRecorder::shared();
    let outcome = MineSession::new(cfg)
        .with_topology(Tree::path(5))
        .with_databases(uniform_dbs(5))
        .with_recorder(rec.clone())
        .run();

    assert!(outcome.verdicts.is_empty());
    // Events are emitted at the exact sites the outcome's tallies
    // increment, so the log is an audit trail of the counters.
    assert_eq!(rec.count_of(EventKind::CounterSent) as u64, outcome.messages);
    assert_eq!(rec.count_of(EventKind::RoundAdvanced), cfg.rounds, "one marker per round");
    assert_eq!(rec.count_of(EventKind::VerdictIssued), 0, "honest run has no verdicts");
    assert_eq!(
        rec.count_of(EventKind::SfeQuery),
        rec.count_of(EventKind::SfeAnswer),
        "every SFE round-trip completes"
    );
    assert!(rec.count_of(EventKind::OutputDecision) > 0, "decisions were logged");

    // The armed metrics registry shadowed the same stream.
    assert_eq!(outcome.metrics.msgs_sent(), outcome.messages);
    assert_eq!(outcome.metrics.of(EventKind::SfeAnswer), rec.count_of(EventKind::SfeAnswer) as u64);
    assert!(outcome.metrics.bytes_on_wire > 0, "wire volume was accounted");
}

/// The `(from, to, rule)` of every counter one synchronous session mails,
/// in the order it mails them.
fn counters_mailed(tree: Tree, seed: u64) -> Vec<(u64, u64, String)> {
    let (parts, ..) = quest_partitions(tree.capacity(), 400);
    let mut cfg = MineConfig::new(Ratio::from_f64(0.1), Ratio::from_f64(0.6));
    cfg.rounds = 4;
    cfg.seed = seed;
    let rec = MemoryRecorder::shared();
    let outcome = MineSession::over(cfg, GridKeys::<MockCipher>::mock(seed))
        .with_topology(tree)
        .with_databases(parts)
        .with_recorder(rec.clone())
        .run();
    assert!(outcome.verdicts.is_empty());
    let mailed: Vec<_> = rec
        .snapshot()
        .into_iter()
        .filter_map(|e| match e {
            Event::CounterSent { from, to, rule, .. } => Some((from, to, rule)),
            _ => None,
        })
        .collect();
    assert_eq!(mailed.len() as u64, outcome.messages);
    mailed
}

#[test]
fn a_seeded_synchronous_session_replays_message_for_message() {
    // Twice in one process: whatever order a run walks its rules in must
    // come from the seed and the input, not from where a hash map put them.
    for tree in [Tree::path(4), Tree::star(5)] {
        let first = counters_mailed(tree.clone(), 9);
        assert!(first.len() > 1_000, "too few counters to tell orders apart: {}", first.len());
        let second = counters_mailed(tree, 9);
        let diverged = first.iter().zip(&second).position(|(a, b)| a != b);
        assert_eq!(diverged, None, "of {} counters, the replay first differs here", first.len());
        assert_eq!(first.len(), second.len());
    }
}

#[test]
fn jsonl_trace_of_a_faulty_threaded_run_parses_and_matches_the_report() {
    // Written to a predictable path so CI can archive the trace artifact.
    let path = std::path::Path::new("target/gridmine-obs/chaos_trace.jsonl");
    let rec: SharedRecorder =
        std::sync::Arc::new(JsonlRecorder::create(path).expect("create trace file"));

    let mut cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
    cfg.rounds = 8;
    let plan = FaultPlan::new(0xD1CE)
        .with_default_edge(EdgeFaults { drop: 0.2, duplicate: 0.1, jitter: 1 })
        .with_crash(4, 2, Some(5));
    let outcome = MineSession::new(cfg)
        .with_topology(Tree::path(6))
        .with_databases(uniform_dbs(6))
        .with_faults(plan)
        .with_recorder(rec)
        .run_threaded();

    // Every line of the trace must parse back into a typed event.
    let text = std::fs::read_to_string(path).expect("trace file written");
    let events: Vec<Event> = text
        .lines()
        .map(|l| Event::from_json(l).unwrap_or_else(|| panic!("unparseable trace line: {l}")))
        .collect();
    assert!(!events.is_empty(), "trace must not be empty");
    let count = |k: EventKind| events.iter().filter(|e| e.kind() == k).count() as u64;

    // Per-type counts equal the outcome's own accounting.
    assert_eq!(count(EventKind::CounterSent), outcome.messages);
    assert_eq!(count(EventKind::MessageDropped), outcome.chaos.faults.dropped);
    assert_eq!(count(EventKind::MessageDuplicated), outcome.chaos.faults.duplicated);
    assert_eq!(count(EventKind::MessageDelayed), outcome.chaos.faults.delayed);
    assert_eq!(count(EventKind::ResourceCrashed), outcome.chaos.faults.crashes);
    assert_eq!(count(EventKind::ResourceRecovered), outcome.chaos.faults.recoveries);
    assert_eq!(count(EventKind::RoundAdvanced), cfg.rounds as u64);
    assert_eq!(count(EventKind::CounterSent), outcome.metrics.of(EventKind::CounterSent));
    assert!(count(EventKind::MessageDropped) > 0, "the fault plan actually fired");
}

#[test]
fn dynamic_growth_under_literal_gate_freezes_but_stays_close() {
    // Paper-literal gate: disclosures need k new *resources*, so decisions
    // freeze at the last membership-growth epoch. Data that arrives after
    // the aggregation wave cannot refine them — by design (it would let a
    // requester difference out one resource's update). Recall stays high
    // but need not be perfect.
    let (grids, truth) = dynamic_growth_run(false);
    for r in &grids {
        let interim = r.interim();
        let recall = gridmine::arm::recall(&interim, &truth);
        assert!(
            recall > 0.85,
            "resource {} recall {} collapsed under the literal gate",
            r.id(),
            recall
        );
        assert!(
            gridmine::arm::precision(&interim, &truth) > 0.9,
            "resource {} precision too low",
            r.id()
        );
    }
}
