//! Parallel scenario production: partition a plan's campaigns into
//! server-disjoint groups, run one [`ScenarioStream`] per group on its
//! own thread, and merge the keyed items back into the canonical
//! sequential order.
//!
//! Three invariants make the fan-out exact rather than approximate:
//!
//! 1. **Campaign-scoped allocation.** Flow ids, ephemeral ports, and
//!    random draws are functions of `(campaign index, per-campaign
//!    history)` only (see `Network::set_scope` and the per-campaign RNG
//!    in [`ScenarioStream`]), so a campaign emits bit-identical records
//!    no matter which producer runs it or what its neighbours do.
//! 2. **Server-disjoint partitioning.** Campaigns sharing a server (via
//!    `Cell`/`Terminal` steps, which mutate server state) are grouped by
//!    union-find into the same producer, so each server's state and its
//!    per-server RNG see exactly the sequential draw order. Probes only
//!    read the static address table and auth steps only touch the
//!    producer's private hub clone, so neither constrains the partition.
//! 3. **Exact k-way merge.** Every item carries a [`StreamKey`] that is
//!    locally computable yet globally unique, and each producer's stream
//!    is sorted by it; merging by key therefore reproduces the exact
//!    total order the sequential stream releases — which is what keeps
//!    time-ordered consumers (the intel loop, the watermark-batched
//!    monitor fan-out) oblivious to how many producers ran.
//!
//! Producers ship items in chunked batches over bounded channels
//! ([`BATCH`] items per send) so the merge thread amortizes wakeups.

use crate::campaign::{Campaign, GroundTruth};
use crate::stream::{ScenarioItem, ScenarioStream, StreamKey};
use ja_kernelsim::deployment::Deployment;
use ja_netsim::time::SimTime;
use std::sync::mpsc::{sync_channel, Receiver};

/// Items per producer→merge batch. Large enough to amortize channel
/// synchronization, small enough that the merge's reorder buffer stays
/// a few hundred KiB per producer.
pub const BATCH: usize = 256;

/// In-flight batches allowed per producer before it blocks.
const DEPTH: usize = 4;

/// Result of a parallel scenario run.
pub struct ParallelOutcome {
    /// Ground truth in plan order (identical to the sequential labels).
    pub ground_truth: Vec<GroundTruth>,
    /// Latest simulated instant reached.
    pub end: SimTime,
    /// Producer threads actually used after partitioning (≤ requested;
    /// server-sharing campaigns can collapse groups).
    pub producers_used: usize,
}

/// Partition campaign indices into at most `producers` server-disjoint
/// groups. Campaigns that mutate a common server (through `Cell` or
/// `Terminal` steps) always land in the same group; groups are packed
/// by total step count, heaviest component first, with deterministic
/// tie-breaks. Each group's indices come back sorted ascending.
pub fn partition_campaigns(
    campaigns: &[(SimTime, Campaign)],
    n_servers: usize,
    producers: usize,
) -> Vec<Vec<usize>> {
    let producers = producers.max(1);
    if campaigns.is_empty() {
        return Vec::new();
    }
    // Union-find over `n_servers` server slots plus one slot per
    // campaign (so server-free campaigns stay singleton components).
    let mut parent: Vec<usize> = (0..n_servers + campaigns.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (ci, (_, c)) in campaigns.iter().enumerate() {
        for server in c.mutated_servers() {
            let a = find(&mut parent, n_servers + ci);
            let b = find(&mut parent, server);
            parent[a] = b;
        }
    }
    // Component root → (campaign list, step weight).
    let mut comps: std::collections::BTreeMap<usize, (Vec<usize>, usize)> =
        std::collections::BTreeMap::new();
    for (ci, (_, c)) in campaigns.iter().enumerate() {
        let root = find(&mut parent, n_servers + ci);
        let entry = comps.entry(root).or_default();
        entry.0.push(ci);
        entry.1 += c.steps.len().max(1);
    }
    // Heaviest component first (min campaign index breaks ties) onto
    // the lightest bin (lowest index breaks ties).
    let mut ordered: Vec<(Vec<usize>, usize)> = comps.into_values().collect();
    ordered.sort_by_key(|(cis, w)| (std::cmp::Reverse(*w), cis[0]));
    let bins = producers.min(ordered.len());
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); bins];
    let mut loads: Vec<usize> = vec![0; bins];
    for (cis, w) in ordered {
        let b = (0..bins).min_by_key(|&b| (loads[b], b)).expect("bins > 0");
        loads[b] += w;
        groups[b].extend(cis);
    }
    for g in &mut groups {
        g.sort_unstable();
    }
    groups
}

/// Run `campaigns` against `deployment` with up to `producers` scenario
/// threads, delivering every item to `sink` in canonical sequential
/// order. `producers <= 1` (or a plan that collapses to one group) runs
/// the fused single-threaded stream with no threading overhead and
/// lends that stream to `sink` alongside each item, so the caller can
/// observe producer state (`None` when items come off the merge of
/// several producer threads). The items are bit-identical either way.
pub fn run_parallel(
    deployment: &mut Deployment,
    campaigns: Vec<(SimTime, Campaign)>,
    rng_seed: u64,
    producers: usize,
    mut sink: impl FnMut(ScenarioItem, Option<&ScenarioStream<'_>>),
) -> ParallelOutcome {
    let n_servers = deployment.servers.len();
    let groups = if producers <= 1 {
        Vec::new()
    } else {
        partition_campaigns(&campaigns, n_servers, producers)
    };
    if groups.len() <= 1 {
        let mut stream = ScenarioStream::new(deployment, campaigns, rng_seed);
        while let Some(item) = stream.next_item() {
            sink(item, Some(&stream));
        }
        let (ground_truth, end) = stream.into_labels();
        return ParallelOutcome {
            ground_truth,
            end,
            producers_used: 1,
        };
    }

    // Assign each mutated server to the group of its campaigns'
    // component; untouched servers go anywhere (group 0 — they emit
    // nothing).
    let mut owner = vec![0usize; n_servers];
    for (b, group) in groups.iter().enumerate() {
        for &ci in group {
            for server in campaigns[ci].1.mutated_servers() {
                owner[server] = b;
            }
        }
    }
    let nbins = groups.len();
    let parts = deployment.split_parts(&owner, nbins);

    // Distribute the campaigns to their groups, keeping global indices.
    let mut per_group: Vec<Vec<(usize, SimTime, Campaign)>> =
        (0..nbins).map(|_| Vec::new()).collect();
    let mut slots: Vec<Option<(SimTime, Campaign)>> = campaigns.into_iter().map(Some).collect();
    for (b, group) in groups.iter().enumerate() {
        for &ci in group {
            let (start, c) = slots[ci].take().expect("campaign assigned twice");
            per_group[b].push((ci, start, c));
        }
    }

    let mut retired: Vec<(usize, GroundTruth)> = Vec::new();
    let mut end = SimTime::ZERO;
    std::thread::scope(|scope| {
        let mut rxs: Vec<Receiver<Vec<(StreamKey, ScenarioItem)>>> = Vec::with_capacity(nbins);
        let mut handles = Vec::with_capacity(nbins);
        for (part, group) in parts.into_iter().zip(per_group.drain(..)) {
            let (tx, rx) = sync_channel::<Vec<(StreamKey, ScenarioItem)>>(DEPTH);
            rxs.push(rx);
            handles.push(scope.spawn(move || {
                let mut stream = ScenarioStream::over_part(part, group, rng_seed);
                let mut batch = Vec::with_capacity(BATCH);
                while let Some(keyed) = stream.next_keyed() {
                    batch.push(keyed);
                    if batch.len() == BATCH
                        && tx
                            .send(std::mem::replace(&mut batch, Vec::with_capacity(BATCH)))
                            .is_err()
                    {
                        break;
                    }
                }
                if !batch.is_empty() {
                    let _ = tx.send(batch);
                }
                drop(tx);
                stream.into_labels_indexed()
            }));
        }

        // Exact k-way merge by StreamKey. Each producer's stream is
        // key-sorted, so one lookahead item per producer suffices.
        struct Head {
            rx: Receiver<Vec<(StreamKey, ScenarioItem)>>,
            batch: std::vec::IntoIter<(StreamKey, ScenarioItem)>,
            next: Option<(StreamKey, ScenarioItem)>,
        }
        impl Head {
            fn refill(&mut self) {
                self.next = self.batch.next();
                while self.next.is_none() {
                    match self.rx.recv() {
                        Ok(b) => {
                            self.batch = b.into_iter();
                            self.next = self.batch.next();
                        }
                        Err(_) => return, // producer finished
                    }
                }
            }
        }
        let mut heads: Vec<Head> = rxs
            .into_iter()
            .map(|rx| {
                let mut h = Head {
                    rx,
                    batch: Vec::new().into_iter(),
                    next: None,
                };
                h.refill();
                h
            })
            .collect();
        let mut last_key: Option<StreamKey> = None;
        while let Some(min_i) = heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.next.as_ref().map(|(k, _)| (i, *k)))
            .min_by_key(|&(_, k)| k)
            .map(|(i, _)| i)
        {
            let (key, item) = heads[min_i].next.take().expect("head populated");
            debug_assert!(
                last_key.map_or(true, |lk| lk < key),
                "merge keys must strictly increase"
            );
            last_key = Some(key);
            sink(item, None);
            heads[min_i].refill();
        }
        for h in handles {
            let (labels, producer_end) = h.join().expect("producer thread panicked");
            retired.extend(labels);
            end = end.max(producer_end);
        }
    });
    retired.sort_by_key(|(ci, _)| *ci);
    ParallelOutcome {
        ground_truth: retired.into_iter().map(|(_, g)| g).collect(),
        end,
        producers_used: nbins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benign::{session, BenignProfile};
    use crate::exfiltration::{self, ExfilParams};
    use ja_kernelsim::deployment::DeploymentSpec;
    use ja_netsim::rng::SimRng;

    fn plan(d: &Deployment) -> Vec<(SimTime, Campaign)> {
        let mut rng = SimRng::new(11);
        (0..d.servers.len())
            .map(|i| {
                let u = d.owner_of(i).to_string();
                let start = SimTime::from_secs(5 + 30 * i as u64);
                if i % 2 == 0 {
                    (start, session(i, &u, &BenignProfile::default(), &mut rng))
                } else {
                    (
                        start,
                        exfiltration::campaign(i, &u, &ExfilParams::default()),
                    )
                }
            })
            .collect()
    }

    fn fingerprint(item: &ScenarioItem) -> (u64, u8, u64, u32) {
        match item {
            ScenarioItem::Segment(r) => (r.time.0, 0, r.flow_id, r.wire_len),
            ScenarioItem::Auth(e) => (e.time.0, 1, 0, 0),
            ScenarioItem::Sys(e) => (e.time.0, 2, e.server_id as u64, 0),
        }
    }

    #[test]
    fn parallel_merge_matches_sequential_stream() {
        for producers in [2, 3, 8] {
            let mut d1 = Deployment::build(&DeploymentSpec::small_lab(21));
            let campaigns = plan(&d1);
            let mut seq = Vec::new();
            let mut stream = ScenarioStream::new(&mut d1, campaigns, 9);
            while let Some(item) = stream.next_item() {
                seq.push(fingerprint(&item));
            }
            let (seq_gt, seq_end) = stream.into_labels();

            let mut d2 = Deployment::build(&DeploymentSpec::small_lab(21));
            let campaigns2 = plan(&d2);
            let mut par = Vec::new();
            let out = run_parallel(&mut d2, campaigns2, 9, producers, |item, lent| {
                // Merged items come off several threads: no stream to lend.
                assert!(lent.is_none());
                par.push(fingerprint(&item));
            });
            assert!(out.producers_used >= 2, "plan should split");
            assert_eq!(seq.len(), par.len(), "item count ({producers} producers)");
            assert_eq!(seq, par, "merged order ({producers} producers)");
            assert_eq!(seq_end, out.end);
            assert_eq!(seq_gt.len(), out.ground_truth.len());
            for (a, b) in seq_gt.iter().zip(&out.ground_truth) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.servers, b.servers);
                assert_eq!(a.start, b.start);
                assert_eq!(a.end, b.end);
            }
        }
    }

    #[test]
    fn partition_keeps_server_sharing_campaigns_together() {
        let d = Deployment::build(&DeploymentSpec::small_lab(22));
        let mut rng = SimRng::new(3);
        let u0 = d.owner_of(0).to_string();
        // Two campaigns on server 0, one on server 1.
        let campaigns = vec![
            (
                SimTime::ZERO,
                session(0, &u0, &BenignProfile::default(), &mut rng),
            ),
            (
                SimTime::from_secs(10),
                exfiltration::campaign(0, &u0, &ExfilParams::default()),
            ),
            (
                SimTime::from_secs(20),
                exfiltration::campaign(1, &d.owner_of(1).to_string(), &ExfilParams::default()),
            ),
        ];
        let groups = partition_campaigns(&campaigns, d.servers.len(), 4);
        assert_eq!(groups.len(), 2, "two disjoint components");
        let with_both: Vec<&Vec<usize>> = groups.iter().filter(|g| g.contains(&0)).collect();
        assert_eq!(with_both.len(), 1);
        assert!(
            with_both[0].contains(&1),
            "campaigns sharing server 0 must share a group"
        );
    }

    #[test]
    fn partition_is_deterministic_and_covers_all() {
        let d = Deployment::build(&DeploymentSpec::campus(23));
        let campaigns = plan(&d);
        let a = partition_campaigns(&campaigns, d.servers.len(), 4);
        let b = partition_campaigns(&campaigns, d.servers.len(), 4);
        assert_eq!(a, b);
        let mut all: Vec<usize> = a.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..campaigns.len()).collect::<Vec<_>>());
    }

    #[test]
    fn interactive_campaigns_partition_by_footprint_and_merge_exactly() {
        // A worm's steps are empty until it runs; partitioning must key
        // off its declared footprint, or another producer could mutate a
        // server the worm is about to hop to.
        let d = Deployment::build(&DeploymentSpec::small_lab(25));
        let u0 = d.owner_of(0).to_string();
        let u3 = d.owner_of(3).to_string();
        let campaigns = vec![
            (
                SimTime::ZERO,
                crate::interactive::worm_campaign(0, &u0, vec![0, 1, 2], 3),
            ),
            (
                SimTime::from_secs(10),
                exfiltration::campaign(3, &u3, &ExfilParams::default()),
            ),
        ];
        let groups = partition_campaigns(&campaigns, d.servers.len(), 4);
        assert_eq!(
            groups.len(),
            2,
            "worm fleet and server-3 exfil are disjoint"
        );

        // And the parallel run is bit-identical to the sequential one.
        let mut d1 = Deployment::build(&DeploymentSpec::small_lab(25));
        let plan1 = vec![
            (
                SimTime::ZERO,
                crate::interactive::worm_campaign(0, &d1.owner_of(0).to_string(), vec![0, 1, 2], 3),
            ),
            (
                SimTime::from_secs(10),
                exfiltration::campaign(3, &d1.owner_of(3).to_string(), &ExfilParams::default()),
            ),
        ];
        let mut seq = Vec::new();
        let mut stream = ScenarioStream::new(&mut d1, plan1, 9);
        while let Some(item) = stream.next_item() {
            seq.push(fingerprint(&item));
        }
        let (seq_gt, _) = stream.into_labels();
        let mut d2 = Deployment::build(&DeploymentSpec::small_lab(25));
        let plan2 = vec![
            (
                SimTime::ZERO,
                crate::interactive::worm_campaign(0, &d2.owner_of(0).to_string(), vec![0, 1, 2], 3),
            ),
            (
                SimTime::from_secs(10),
                exfiltration::campaign(3, &d2.owner_of(3).to_string(), &ExfilParams::default()),
            ),
        ];
        let mut par = Vec::new();
        let out = run_parallel(&mut d2, plan2, 9, 4, |item, _| par.push(fingerprint(&item)));
        assert_eq!(out.producers_used, 2);
        assert_eq!(seq, par, "interactive plans must merge bit-identically");
        assert_eq!(seq_gt.len(), out.ground_truth.len());
        for (a, b) in seq_gt.iter().zip(&out.ground_truth) {
            assert_eq!(a.servers, b.servers);
            assert_eq!(a.end, b.end);
        }
        assert!(
            out.ground_truth[0].servers.len() >= 2,
            "worm still propagates under the parallel path"
        );
    }

    #[test]
    fn single_producer_and_empty_plan_degenerate_cleanly() {
        let mut d = Deployment::build(&DeploymentSpec::small_lab(24));
        let mut n = 0usize;
        let out = run_parallel(&mut d, Vec::new(), 1, 8, |_, _| n += 1);
        assert_eq!(n, 0);
        assert_eq!(out.ground_truth.len(), 0);
        assert_eq!(out.producers_used, 1);
        // One producer lends its stream with every item, so the caller
        // can snapshot producer state at any watermark.
        let campaigns = plan(&d);
        let mut lent = 0usize;
        let out = run_parallel(&mut d, campaigns, 9, 1, |_, stream| {
            assert!(stream.is_some());
            lent += 1;
        });
        assert!(lent > 0);
        assert_eq!(out.producers_used, 1);
    }
}
