//! Criterion micro-benchmarks of the protocol layer: plain
//! Scalable-Majority vs. the secure protocol, per-event costs, and the
//! price of the §5 security machinery (the DESIGN.md ablation
//! "plain baseline vs. Secure-Majority-Rule").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridmine_arm::{Database, Item, Ratio, Transaction};
use gridmine_core::resource::wire_grid;
use gridmine_core::{GridKeys, SecureResource, WireMsg};
use gridmine_majority::scalable::run_to_quiescence;
use gridmine_majority::{rule::run_plain_mining, CandidateGenerator, VotePair};
use gridmine_paillier::MockCipher;
use gridmine_topology::Tree;
use std::hint::black_box;

fn mixed_inputs(n: usize) -> Vec<VotePair> {
    (0..n).map(|i| VotePair::new(((i * 7) % 10) as i64, 10)).collect()
}

fn bench_scalable_majority(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalable_majority_quiescence");
    for n in [16usize, 64, 256] {
        let inputs = mixed_inputs(n);
        group.bench_with_input(BenchmarkId::new("path", n), &n, |b, &n| {
            let tree = Tree::path(n);
            b.iter(|| run_to_quiescence(&tree, Ratio::new(1, 2), black_box(&inputs)))
        });
        group.bench_with_input(BenchmarkId::new("star", n), &n, |b, &n| {
            let tree = Tree::star(n);
            b.iter(|| run_to_quiescence(&tree, Ratio::new(1, 2), black_box(&inputs)))
        });
    }
    group.finish();
}

fn small_partitions(n: usize, per: usize) -> Vec<Database> {
    (0..n)
        .map(|u| {
            Database::from_transactions(
                (0..per)
                    .map(|j| {
                        let id = (u * per + j) as u64;
                        if j % 3 == 0 {
                            Transaction::of(id, &[2, 3])
                        } else {
                            Transaction::of(id, &[1, 2])
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

fn bench_plain_vs_secure_mining(c: &mut Criterion) {
    let mut group = c.benchmark_group("mining_to_fixpoint");
    group.sample_size(20);
    let n = 8;
    let dbs = small_partitions(n, 60);
    let items: Vec<Item> = vec![Item(1), Item(2), Item(3)];

    group.bench_function("plain_majority_rule", |b| {
        let tree = Tree::path(n);
        b.iter(|| run_plain_mining(&tree, black_box(&dbs), Ratio::new(1, 2), Ratio::new(1, 2)))
    });

    group.bench_function("secure_majority_rule_mock", |b| {
        b.iter(|| {
            let keys = GridKeys::<MockCipher>::mock(3);
            let generator = CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
            let mut grid: Vec<SecureResource<MockCipher>> = dbs
                .iter()
                .enumerate()
                .map(|(u, db)| {
                    let mut neighbors = Vec::new();
                    if u > 0 {
                        neighbors.push(u - 1);
                    }
                    if u + 1 < n {
                        neighbors.push(u + 1);
                    }
                    SecureResource::new(
                        u,
                        &keys,
                        neighbors,
                        db.clone(),
                        1,
                        generator,
                        &items,
                        u as u64,
                    )
                })
                .collect();
            wire_grid(&mut grid);
            for _ in 0..4 {
                let mut queue: Vec<WireMsg<MockCipher>> = Vec::new();
                for r in grid.iter_mut() {
                    queue.extend(r.step(usize::MAX));
                }
                while let Some(m) = queue.pop() {
                    let to = m.to;
                    queue.extend(grid[to].on_receive(&m));
                }
                let mut queue: Vec<WireMsg<MockCipher>> = Vec::new();
                for r in grid.iter_mut() {
                    queue.extend(r.generate_candidates());
                }
                while let Some(m) = queue.pop() {
                    let to = m.to;
                    queue.extend(grid[to].on_receive(&m));
                }
            }
            grid.iter_mut().for_each(|r| r.refresh_outputs());
            black_box(grid[0].interim())
        })
    });
    group.finish();
}

fn bench_simulation_step(c: &mut Criterion) {
    use gridmine_sim::{workload::GrowthPlan, SimConfig, Simulation};
    let mut group = c.benchmark_group("simulation_step");
    group.sample_size(10);
    for n in [32usize, 128] {
        group.bench_with_input(BenchmarkId::new("grid", n), &n, |b, &n| {
            let keys = GridKeys::<MockCipher>::mock(1);
            let dbs = small_partitions(n, 100);
            let plans: Vec<GrowthPlan> = dbs.into_iter().map(GrowthPlan::fixed).collect();
            let mut cfg = SimConfig::small().with_resources(n).with_k(4);
            cfg.growth_per_step = 0;
            cfg.min_freq = Ratio::new(1, 2);
            let items: Vec<Item> = vec![Item(1), Item(2), Item(3)];
            let mut sim = Simulation::new(cfg, &keys, plans, &items);
            b.iter(|| sim.run_event_driven(1))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scalable_majority,
    bench_plain_vs_secure_mining,
    bench_simulation_step
);
criterion_main!(benches);
