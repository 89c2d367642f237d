//! The parallel campaign engine: N worker threads, each driving its own
//! [`TestGenerator`] over a shard of the seed corpus, merging coverage
//! into one atomic bitmap and periodically exchanging newly discovered
//! seeds through an [`ExchangeHub`].
//!
//! Workers pull iteration indices from a shared counter, so the total
//! budget is exact regardless of per-worker speed. With `workers = 1` the
//! engine degenerates to the serial loop of [`run_campaign`] — same RNG
//! stream, same iteration order, bit-for-bit the same report.
//!
//! [`run_campaign`]: crate::campaign::run_campaign

use crate::campaign::{run_worker, CampaignConfig, CampaignReport, CampaignShared, MutantStats};
use crate::generator::TestGenerator;
use metamut_simcomp::Compiler;
use parking_lot::Mutex;

/// Per-worker inboxes for cross-shard seed exchange. A worker publishes
/// its fresh discoveries into every *other* worker's inbox and drains its
/// own; generators flag adopted seeds so they are never re-exported
/// (no echo between shards).
#[derive(Debug)]
pub struct ExchangeHub {
    inboxes: Vec<Mutex<Vec<String>>>,
}

impl ExchangeHub {
    /// A hub for `workers` shards.
    pub fn new(workers: usize) -> Self {
        ExchangeHub {
            inboxes: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Broadcasts `seeds` to every shard except the sender.
    pub fn publish(&self, from: usize, seeds: Vec<String>) {
        if seeds.is_empty() {
            return;
        }
        for (i, inbox) in self.inboxes.iter().enumerate() {
            if i != from {
                inbox.lock().extend(seeds.iter().cloned());
            }
        }
    }

    /// Drains the seeds other shards have published for `worker`.
    pub fn collect(&self, worker: usize) -> Vec<String> {
        std::mem::take(&mut *self.inboxes[worker].lock())
    }
}

/// The worker count `workers` asks for: `0` means one per available CPU.
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
}

/// Runs one campaign across [`resolve_workers`]`(config.workers)` threads
/// (clamped to the seed count so every shard starts non-empty).
///
/// `factory` builds each worker's generator from its worker index and its
/// round-robin shard of `seeds`; worker `w` takes `seeds[i]` for every
/// `i % workers == w`. With one worker, the single shard is the full seed
/// list in order and the report equals [`run_campaign`]'s exactly.
///
/// [`run_campaign`]: crate::campaign::run_campaign
pub fn run_parallel_campaign<G, F>(
    seeds: &[String],
    factory: F,
    compiler: &Compiler,
    config: &CampaignConfig,
) -> CampaignReport
where
    G: TestGenerator,
    F: Fn(usize, Vec<String>) -> G + Sync,
{
    run_parallel_campaign_with(
        seeds,
        factory,
        compiler,
        config,
        metamut_telemetry::handle().clone(),
    )
}

/// [`run_parallel_campaign`] reporting into an explicit telemetry
/// pipeline instead of the process-global handle (tests, embedded
/// observers).
pub fn run_parallel_campaign_with<G, F>(
    seeds: &[String],
    factory: F,
    compiler: &Compiler,
    config: &CampaignConfig,
    telemetry: metamut_telemetry::Telemetry,
) -> CampaignReport
where
    G: TestGenerator,
    F: Fn(usize, Vec<String>) -> G + Sync,
{
    let workers = resolve_workers(config.workers).min(seeds.len().max(1));
    let campaign_span = telemetry.span("campaign");
    let campaign_span_id = campaign_span.id();
    telemetry.gauge_set("fuzz_workers", workers as f64);

    let shared = CampaignShared::new_with(compiler, config, telemetry.clone());
    let hub = (workers > 1 && config.exchange_every > 0).then(|| ExchangeHub::new(workers));

    let (name, mutants) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let shard: Vec<String> = seeds
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % workers == w)
                    .map(|(_, s)| s.clone())
                    .collect();
                let mut generator = factory(w, shard);
                let shared = &shared;
                let hub = hub.as_ref();
                scope.spawn(move || {
                    let stats = run_worker(w, &mut generator, shared, hub, campaign_span_id);
                    (generator.name(), stats)
                })
            })
            .collect();
        let mut total = ("", MutantStats::default());
        for h in handles {
            let (name, stats) = h.join().expect("campaign worker panicked");
            total.0 = name;
            total.1.absorb(stats);
        }
        total
    });
    shared.into_report(name, mutants, workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_routes_to_other_workers_only() {
        let hub = ExchangeHub::new(3);
        hub.publish(0, vec!["int a;".to_string()]);
        assert!(hub.collect(0).is_empty(), "sender must not receive");
        assert_eq!(hub.collect(1), vec!["int a;".to_string()]);
        assert_eq!(hub.collect(2), vec!["int a;".to_string()]);
        // Drained inboxes stay empty until the next publish.
        assert!(hub.collect(1).is_empty());
    }

    #[test]
    fn hub_accumulates_from_multiple_senders() {
        let hub = ExchangeHub::new(2);
        hub.publish(0, vec!["int a;".to_string()]);
        hub.publish(0, vec!["int b;".to_string()]);
        assert_eq!(
            hub.collect(1),
            vec!["int a;".to_string(), "int b;".to_string()]
        );
    }
}
