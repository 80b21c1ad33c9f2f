//! End-to-end crash durability at the workspace level: a mining
//! resource's checkpoint + journal spills through the `RecoveryImage`
//! codec to a real file (the CI artifact, next to the chaos trace),
//! reads back, and restores the resource to its pre-crash solutions.

use gridmine::prelude::*;
use gridmine::secure::resource::wire_grid;

/// Drives a vector of resources synchronously to quiescence with
/// interleaved candidate-generation rounds (the end_to_end idiom).
fn drive<C: HomCipher>(resources: &mut [SecureResource<C>], rounds: usize) {
    for _ in 0..rounds {
        for phase in 0..2 {
            let mut queue: Vec<WireMsg<C>> = Vec::new();
            for r in resources.iter_mut() {
                if phase == 0 {
                    queue.extend(r.step(usize::MAX));
                } else {
                    queue.extend(r.generate_candidates());
                }
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
        }
    }
    for r in resources.iter_mut() {
        r.refresh_outputs();
    }
}

fn uniform_dbs(n: u64) -> Vec<Database> {
    (0..n)
        .map(|u| {
            Database::from_transactions(
                (0..40)
                    .map(|j| {
                        let id = u * 40 + j;
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
fn recovery_journal_spills_to_disk_and_restores_the_resource() {
    let keys = GridKeys::<MockCipher>::mock(17);
    let generator = CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
    let items = vec![Item(1), Item(2), Item(3)];
    let n = 4usize;
    let mut grid: Vec<SecureResource<MockCipher>> = uniform_dbs(n as u64)
        .into_iter()
        .enumerate()
        .map(|(u, db)| {
            let mut neighbors = Vec::new();
            if u > 0 {
                neighbors.push(u - 1);
            }
            if u + 1 < n {
                neighbors.push(u + 1);
            }
            SecureResource::new(u, &keys, neighbors, db, 1, generator, &items, 41 + u as u64)
        })
        .collect();
    wire_grid(&mut grid);
    for r in grid.iter_mut() {
        r.arm_recovery();
    }

    drive(&mut grid, 6);
    for r in grid.iter_mut() {
        r.take_checkpoint(6);
    }
    let before = grid[2].interim();
    assert!(!before.is_empty(), "the grid mined something to lose");

    // Crash: volatile state dies; the journal is what survived on disk.
    grid[2].crash_wipe();
    assert_eq!(grid[2].candidate_count(), 0, "the wipe actually lost the working set");
    let bytes = grid[2].encode_recovery_image().expect("armed resource has an image");

    // Spill the image to the artifact path CI archives (written to a
    // predictable location, like the chaos trace in end_to_end.rs).
    let path = std::path::Path::new("target/gridmine-obs/recovery_journal.image");
    let image = RecoveryImage::from_bytes(&bytes).expect("image decodes");
    image.write_to(path).expect("artifact written");
    let from_disk = RecoveryImage::read_from(path).expect("artifact reads back");
    assert_eq!(from_disk.to_bytes(), image.to_bytes(), "the file codec is lossless");

    // Restore from the on-disk copy and verify the resource resumed.
    assert!(grid[2].restore_from_image(&from_disk.to_bytes()), "verified restore succeeds");
    grid[2].refresh_outputs();
    assert_eq!(grid[2].interim(), before, "restored resource resumes where it left off");
    assert!(grid[2].verdict().is_none(), "an honest journal raises no verdict");

    // The grid keeps mining correctly after the restore.
    drive(&mut grid, 2);
    let truth = correct_rules(
        &Database::union_of(uniform_dbs(n as u64).iter()),
        &AprioriConfig::new(Ratio::new(1, 2), Ratio::new(1, 2)),
    );
    for r in &grid {
        assert_eq!(r.interim(), truth, "resource {} diverged after the restore", r.id());
    }
}

#[test]
fn tampered_on_disk_image_is_rejected_not_applied() {
    let keys = GridKeys::<MockCipher>::mock(18);
    let generator = CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
    let items = vec![Item(1), Item(2)];
    let mut grid: Vec<SecureResource<MockCipher>> = uniform_dbs(3)
        .into_iter()
        .enumerate()
        .map(|(u, db)| {
            let mut neighbors = Vec::new();
            if u > 0 {
                neighbors.push(u - 1);
            }
            if u + 1 < 3 {
                neighbors.push(u + 1);
            }
            SecureResource::new(u, &keys, neighbors, db, 1, generator, &items, 61 + u as u64)
        })
        .collect();
    wire_grid(&mut grid);
    for r in grid.iter_mut() {
        r.arm_recovery();
    }
    drive(&mut grid, 4);

    // Forge the journal while the resource is down, then try to restore.
    grid[1].corrupt_recovery_journal();
    grid[1].crash_wipe();
    let bytes = grid[1].encode_recovery_image().expect("image still encodes");
    assert!(!grid[1].restore_from_image(&bytes), "forged image must be refused");
    assert_eq!(
        grid[1].verdict(),
        Some(Verdict::MaliciousResource(1)),
        "the forgery surfaces as a verdict, not a panic"
    );
}

#[test]
fn a_crash_time_image_of_a_large_working_set_restores_inside_the_watchdog() {
    // The shape the T5I2 checkpoint workload reaches at one resource: a
    // checkpoint of 1 400+ rules with the default five rounds of deltas
    // on top (every rule scanned and decided once a round). The restore
    // watchdog (`RoundMachine::restore`) degrades a resource that takes
    // longer than the policy deadline, so decode + replay + re-seeding
    // must stay well inside it; it is the image codec that decides.
    use gridmine::arm::CandidateRule;
    use gridmine::recovery::{ResourceState, RuleRecord};
    let keys = GridKeys::<MockCipher>::mock(19);
    let generator = CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
    let db = uniform_dbs(1).remove(0);
    let db_len = db.len() as u64;
    let mut r =
        SecureResource::new(0, &keys, Vec::new(), db, 1, generator, &[Item(1), Item(2)], 71);

    let record = |i: u32, round: u64| {
        let pair = ItemSet::of(&[100 + i / 60, 200 + i % 60]);
        let rule = CandidateRule::new(Rule::frequency(pair), Ratio::new(1, 2));
        let frontier = (8 * round).min(db_len);
        let (sum, count, clock) = ((frontier / 2) as i64, frontier as i64, 1 + round as i64);
        RuleRecord {
            rule,
            frontier,
            sum,
            count,
            clock,
            last_sum: sum,
            output: Some(i.is_multiple_of(3)),
        }
    };
    let rules = 1_480u32;
    let mut log = RecoveryLog::baseline(&ResourceState {
        resource: 0,
        records: (0..rules).map(|i| record(i, 0)).collect(),
    });
    for round in 1..=5 {
        for i in 0..rules {
            let rec = record(i, round);
            log.scan_advanced(&rec);
            log.output_cached(&rec.rule, rec.output == Some(true));
        }
    }
    assert_eq!(log.len(), 2 * 5 * rules as usize);
    let bytes = log.image().to_bytes();

    r.crash_wipe();
    let t0 = std::time::Instant::now();
    assert!(r.restore_from_image(&bytes), "an honest image restores");
    let took = t0.elapsed();
    assert_eq!(r.candidate_count(), rules as usize);
    assert_eq!(r.recovery_replays(), 1);
    let deadline = std::time::Duration::from_millis(RetryPolicy::DEFAULT.deadline_ms);
    assert!(took < deadline, "{} kB restored in {took:?}", bytes.len() / 1000);
}
