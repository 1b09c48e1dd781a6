//! The scheduler's contract, through its public surface: scheduled
//! scores equal a private session's, concurrent tenants get their own
//! answers, the queue-depth gauge and the dispatcher count drain to zero,
//! two tenants merge into one batch at any `workers`, and a panicking
//! model call fails only its own submission.

use oppsla_core::oracle::{BatchClassifier, Classifier};
use oppsla_core::pair::{Location, Pixel};
use oppsla_eval::zoo::{Scale, ZooConfig};
use oppsla_nn::models::Arch;
use oppsla_server::metrics::ServerMetrics;
use oppsla_server::scheduler::{Scheduler, SchedulerConfig};
use oppsla_server::zoo::ShardedZoo;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

fn fast_zoo() -> Arc<ShardedZoo> {
    Arc::new(ShardedZoo::new(
        ZooConfig {
            train_per_class: 8,
            epochs: Some(2),
            learning_rate: 2e-3,
            seed: 1,
            cache_dir: None,
        },
        2,
        9,
    ))
}

#[test]
fn scheduled_scores_match_direct_sessions() {
    let zoo = fast_zoo();
    let shard = zoo.shard(Arch::Mlp, Scale::Cifar);
    let scheduler = Scheduler::start(Arc::clone(&zoo), SchedulerConfig::default());
    let clf = scheduler.handle().classifier((Arch::Mlp, Scale::Cifar));

    let direct = shard.classifier.session();
    let (image, _) = &shard.test_set[0];
    let mut want = Vec::new();
    let mut got = Vec::new();
    direct.scores_into(image, &mut want);
    clf.scores_into(image, &mut got);
    assert_eq!(got, want, "full forwards diverged");

    let candidates: Vec<(Location, Pixel)> = (0..5)
        .map(|i| {
            (
                Location::new(i, 2 * i),
                Pixel([0.1 * f32::from(i), 0.9, 0.2]),
            )
        })
        .collect();
    direct.scores_pixel_delta_batch_into(image, &candidates, &mut want);
    clf.scores_pixel_delta_batch_into(image, &candidates, &mut got);
    assert_eq!(got, want, "batched deltas diverged");

    let (loc, px) = candidates[3];
    direct.scores_pixel_delta_into(image, loc, px, &mut want);
    clf.scores_pixel_delta_into(image, loc, px, &mut got);
    assert_eq!(got, want, "single deltas diverged");
    scheduler.shutdown();
}

#[test]
fn concurrent_tenants_get_their_own_answers() {
    let zoo = fast_zoo();
    let shard = zoo.shard(Arch::Mlp, Scale::Cifar);
    let scheduler = Scheduler::start(
        Arc::clone(&zoo),
        SchedulerConfig {
            workers: 2,
            max_merge: 4,
            ..SchedulerConfig::default()
        },
    );
    let handle = scheduler.handle();
    let threads: Vec<_> = (0..6u16)
        .map(|t| {
            let handle = handle.clone();
            let shard = Arc::clone(&shard);
            std::thread::spawn(move || {
                let clf = handle.classifier((Arch::Mlp, Scale::Cifar));
                let (image, _) = &shard.test_set[usize::from(t) % shard.test_set.len()];
                let candidates: Vec<(Location, Pixel)> = (0..4)
                    .map(|i| {
                        (
                            Location::new(t + i, i),
                            Pixel([f32::from(i) * 0.2, 0.5, f32::from(t) * 0.1]),
                        )
                    })
                    .collect();
                let mut got = Vec::new();
                for _ in 0..10 {
                    clf.scores_pixel_delta_batch_into(image, &candidates, &mut got);
                }
                (t, candidates, got)
            })
        })
        .collect();
    for th in threads {
        let (t, candidates, got) = th.join().unwrap();
        let (image, _) = &shard.test_set[usize::from(t) % shard.test_set.len()];
        let isolated = shard.classifier.session();
        let mut want = Vec::new();
        isolated.scores_pixel_delta_batch_into(image, &candidates, &mut want);
        assert_eq!(got, want, "tenant {t} got someone else's scores");
    }
    scheduler.shutdown();
}

#[test]
fn queue_depth_gauge_drains_to_zero_and_dispatches_balance() {
    for workers in [1, 2] {
        gauge_drains_at(workers);
    }
}

fn gauge_drains_at(workers: usize) {
    let zoo = fast_zoo();
    let shard_key = (Arch::Mlp, Scale::Cifar);
    let shard = zoo.shard(shard_key.0, shard_key.1);
    let metrics = Arc::new(ServerMetrics::new());
    let scheduler = Scheduler::start_with_metrics(
        Arc::clone(&zoo),
        SchedulerConfig {
            workers,
            max_merge: 4,
            ..SchedulerConfig::default()
        },
        Some(Arc::clone(&metrics)),
    );
    let handle = scheduler.handle();
    const TENANTS: usize = 4;
    const CALLS: usize = 5;
    let threads: Vec<_> = (0..TENANTS)
        .map(|t| {
            let handle = handle.clone();
            let shard = Arc::clone(&shard);
            std::thread::spawn(move || {
                let clf = handle.classifier((Arch::Mlp, Scale::Cifar));
                let (image, _) = &shard.test_set[t % shard.test_set.len()];
                let candidates = vec![(Location::new(1, 2), Pixel([0.3, 0.6, 0.9])); 3];
                let mut got = Vec::new();
                clf.scores_into(image, &mut got);
                for _ in 0..CALLS {
                    clf.scores_pixel_delta_batch_into(image, &candidates, &mut got);
                }
            })
        })
        .collect();
    for th in threads {
        th.join().unwrap();
    }
    assert_eq!(scheduler.dispatchers(), 0, "every turn given back");
    scheduler.shutdown();
    let sm = metrics.shard(shard_key);
    assert_eq!(
        sm.queue_depth.get(),
        0,
        "every enqueued submission was dispatched"
    );
    assert_eq!(
        sm.merged_submissions.get(),
        (TENANTS * CALLS) as u64,
        "every delta submission is accounted in exactly one dispatch"
    );
    assert_eq!(sm.full_calls.get(), TENANTS as u64);
    assert_eq!(
        sm.batch_size.count(),
        sm.grouped_calls.get() + sm.solo_calls.get(),
        "each delta dispatch observes its size once"
    );
    assert_eq!(sm.batch_size.sum(), sm.merged_submissions.get());
}

/// Two lockstep tenants merge into one grouped call per round whatever
/// `workers` allows: the second submitter joins the batch the first holds
/// open instead of opening a rival one that waits out its own window. At
/// most one window is held per round, as at one worker (fewer when both
/// submissions are already queued when a batch is popped).
#[test]
fn two_tenants_merge_at_any_worker_count() {
    const ROUNDS: u64 = 10;
    for workers in [1, 2] {
        let zoo = fast_zoo();
        let shard_key = (Arch::Mlp, Scale::Cifar);
        let shard = zoo.shard(shard_key.0, shard_key.1);
        let metrics = Arc::new(ServerMetrics::new());
        let cfg = SchedulerConfig {
            workers,
            coalesce: std::time::Duration::from_secs(2),
            ..SchedulerConfig::default()
        };
        let scheduler = Scheduler::start_with_metrics(zoo, cfg, Some(Arc::clone(&metrics)));
        let tenants: Vec<_> = (0..2u16)
            .map(|t| (t, scheduler.handle().classifier(shard_key)))
            .collect();
        let threads: Vec<_> = tenants
            .into_iter()
            .map(|(t, clf)| {
                let shard = Arc::clone(&shard);
                std::thread::spawn(move || {
                    let (image, _) = &shard.test_set[usize::from(t)];
                    let mut got = Vec::new();
                    for i in 0..ROUNDS as u16 {
                        let px = Pixel([0.1 * f32::from(t), 0.5, 0.9]);
                        clf.scores_pixel_delta_into(image, Location::new(i, t), px, &mut got);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let sm = metrics.shard(shard_key);
        let at = format!("at {workers} workers");
        assert_eq!(
            sm.grouped_calls.get(),
            ROUNDS,
            "one grouped call per round {at}"
        );
        assert_eq!(sm.solo_calls.get(), 0, "no solo call {at}");
        assert!(
            sm.coalesce_waits.get() <= ROUNDS,
            "one window per round {at}"
        );
    }
}

#[test]
fn a_submission_after_shutdown_leaves_the_gauge_alone() {
    let zoo = fast_zoo();
    let shard_key = (Arch::Mlp, Scale::Cifar);
    let metrics = Arc::new(ServerMetrics::new());
    let scheduler = Scheduler::start_with_metrics(
        Arc::clone(&zoo),
        SchedulerConfig::default(),
        Some(Arc::clone(&metrics)),
    );
    let clf = scheduler.handle().classifier(shard_key);
    scheduler.shutdown();
    let (image, _) = &zoo.shard(shard_key.0, shard_key.1).test_set[0];
    let refused = std::panic::catch_unwind(AssertUnwindSafe(|| clf.scores(image)));
    assert!(refused.is_err(), "a closed scheduler refuses submissions");
    assert_eq!(metrics.shard(shard_key).queue_depth.get(), 0);
}

/// A tenant whose candidate panics inside the model call fails alone:
/// a tenant merged with it or queued behind it still gets its exact
/// scores, and every dispatcher turn and queue-depth unit comes back.
#[test]
fn a_panicking_batch_fails_only_its_submitter() {
    for workers in [1, 2] {
        let zoo = fast_zoo();
        let shard_key = (Arch::Mlp, Scale::Cifar);
        let shard = zoo.shard(shard_key.0, shard_key.1);
        let metrics = Arc::new(ServerMetrics::new());
        let cfg = SchedulerConfig {
            workers,
            max_merge: 4,
            ..SchedulerConfig::default()
        };
        let scheduler = Scheduler::start_with_metrics(zoo, cfg, Some(Arc::clone(&metrics)));
        let handle = scheduler.handle();
        let (image, _) = shard.test_set[0].clone();
        let good = vec![(Location::new(3, 4), Pixel([0.9, 0.1, 0.5])); 2];
        let mut want = Vec::new();
        let direct = shard.classifier.session();
        direct.scores_pixel_delta_batch_into(&image, &good, &mut want);
        let bad = (Location::new(999, 999), Pixel([0.0; 3]));
        let (a, b) = (handle.classifier(shard_key), handle.classifier(shard_key));
        let tenant_a = std::thread::spawn(move || {
            (0..20)
                .filter(|_| {
                    let mut out = Vec::new();
                    let query = || a.scores_pixel_delta_into(&image, bad.0, bad.1, &mut out);
                    std::panic::catch_unwind(AssertUnwindSafe(query)).is_err()
                })
                .count()
        });
        let (image, _) = &shard.test_set[0];
        let mut got = Vec::new();
        for _ in 0..40 {
            b.scores_pixel_delta_batch_into(image, &good, &mut got);
            assert_eq!(got, want, "tenant B's scores at {workers} workers");
        }
        assert_eq!(tenant_a.join().unwrap(), 20, "every bad query fails");
        b.scores_pixel_delta_batch_into(image, &good, &mut got);
        assert_eq!(got, want, "tenant B keeps being served");
        assert_eq!(scheduler.dispatchers(), 0, "every turn given back");
        assert_eq!(metrics.shard(shard_key).queue_depth.get(), 0);
    }
}
