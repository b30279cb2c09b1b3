//! The campaign-forensics query layer: paper-style campaign clustering
//! over the stored log.
//!
//! The paper mines its ten-month record for campaign structure by linking
//! crawls that share evidence: identical screenshot perceptual hashes,
//! identical TLS certificate fingerprints, and URLs stamped from the same
//! token template. This module reproduces that as a union-find over
//! record metas — two records join the same campaign when they co-occur
//! on any of the three axes.
//!
//! With the store sharded by content hash, campaign members scatter
//! across shards (campaigns share *infrastructure*, not message bytes),
//! so the union-find is built incrementally: [`CampaignClusterer`] merges
//! one shard's index at a time, carrying the evidence-key
//! representatives across shards, and quarantined shards simply
//! contribute nothing. Campaign ids are assigned in order of each
//! cluster's earliest member (shard-major, then log order), so the
//! clustering is deterministic for a deterministic log.

use crate::index::{RecordMeta, StoreIndex};
use cb_phishgen::MessageClass;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Disjoint-set forest with path halving and union by size, growable one
/// node at a time so shards can merge in incrementally.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new() -> UnionFind {
        UnionFind {
            parent: Vec::new(),
            size: Vec::new(),
        }
    }

    /// Add a fresh singleton node; returns its id.
    fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        self.size.push(1);
        id
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }

    fn len(&self) -> usize {
        self.parent.len()
    }
}

/// One campaign cluster and its shared evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    /// Campaign id (dense, ordered by earliest member).
    pub id: usize,
    /// Member records as `(shard id, in-shard log seq)`, in merge order
    /// (shard-major, then ascending seq).
    pub members: Vec<(usize, usize)>,
    /// Corpus message ids of members, in member order.
    pub message_ids: Vec<usize>,
    /// Landing domains across members.
    pub domains: BTreeSet<String>,
    /// Certificate fingerprints across members.
    pub cert_fingerprints: BTreeSet<u64>,
    /// Screenshot perceptual hashes across members.
    pub phashes: BTreeSet<u64>,
    /// URL token schemes across members.
    pub url_schemes: BTreeSet<String>,
    /// Class histogram of members.
    pub classes: BTreeMap<MessageClass, usize>,
}

impl Campaign {
    /// Number of member records.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the campaign has no members (never produced by the
    /// clusterer).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Incremental cross-shard campaign clustering: feed each shard's metas
/// (or any stream of metas) with [`CampaignClusterer::add`], then
/// [`CampaignClusterer::finish`].
///
/// Evidence-key representatives persist across `add` calls, so a phash
/// seen in shard 0 links a shard 3 record added later — the union-find
/// merges incrementally instead of requiring one flat index.
#[derive(Default)]
pub struct CampaignClusterer {
    uf: UnionFind,
    /// `(shard, seq)` of each union-find node, in add order.
    members: Vec<(usize, usize)>,
    /// Cloned meta of each node (the aggregation source for `finish`).
    metas: Vec<RecordMeta>,
    by_phash: HashMap<u64, usize>,
    by_cert: HashMap<u64, usize>,
    by_scheme: HashMap<String, usize>,
}

impl Default for UnionFind {
    fn default() -> UnionFind {
        UnionFind::new()
    }
}

impl CampaignClusterer {
    /// An empty clusterer.
    pub fn new() -> CampaignClusterer {
        CampaignClusterer::default()
    }

    /// Merge one record's meta in, unioning it with the first-seen
    /// representative of every evidence key it carries.
    pub fn add(&mut self, shard: usize, meta: &RecordMeta) {
        let node = self.uf.push();
        self.members.push((shard, meta.seq));
        for &p in &meta.phashes {
            match self.by_phash.get(&p) {
                Some(&first) => self.uf.union(first, node),
                None => {
                    self.by_phash.insert(p, node);
                }
            }
        }
        for &fp in &meta.cert_fingerprints {
            match self.by_cert.get(&fp) {
                Some(&first) => self.uf.union(first, node),
                None => {
                    self.by_cert.insert(fp, node);
                }
            }
        }
        for scheme in &meta.url_schemes {
            match self.by_scheme.get(scheme.as_str()) {
                Some(&first) => self.uf.union(first, node),
                None => {
                    self.by_scheme.insert(scheme.clone(), node);
                }
            }
        }
        self.metas.push(meta.clone());
    }

    /// Merge a whole shard index in, in log order.
    pub fn add_index(&mut self, shard: usize, index: &StoreIndex) {
        for meta in index.metas() {
            self.add(shard, meta);
        }
    }

    /// Absorb another clusterer built independently (e.g. one shard's
    /// fragment clustered on a worker thread), renumbering its nodes onto
    /// the end of this one. The result is bit-identical to having fed the
    /// fragment's metas through [`add`](Self::add) directly: the output of
    /// [`finish`](Self::finish) depends only on the connected components
    /// and the node numbering, and absorbing preserves both — the
    /// fragment's internal components are replayed edge-free via its
    /// roots, and its first-seen evidence representatives union with this
    /// clusterer's (or become the global representative when the key is
    /// new, exactly as `add` would have picked them).
    pub fn absorb(&mut self, mut part: CampaignClusterer) {
        let offset = self.uf.len();
        let n = part.uf.len();
        for _ in 0..n {
            self.uf.push();
        }
        // Replay the fragment's components: linking every node to its
        // fragment-local root reproduces the same partition whatever the
        // fragment's internal union order was.
        for node in 0..n {
            let root = part.uf.find(node);
            if root != node {
                self.uf.union(root + offset, node + offset);
            }
        }
        // Merge evidence representatives. A key both sides know bridges
        // the fragment's component onto ours; a key only the fragment
        // knows makes its (shifted) first-seen node the global
        // representative — the same node `add` would have recorded.
        for (p, first) in part.by_phash.drain() {
            match self.by_phash.get(&p) {
                Some(&mine) => self.uf.union(mine, first + offset),
                None => {
                    self.by_phash.insert(p, first + offset);
                }
            }
        }
        for (fp, first) in part.by_cert.drain() {
            match self.by_cert.get(&fp) {
                Some(&mine) => self.uf.union(mine, first + offset),
                None => {
                    self.by_cert.insert(fp, first + offset);
                }
            }
        }
        for (scheme, first) in part.by_scheme.drain() {
            match self.by_scheme.get(scheme.as_str()) {
                Some(&mine) => self.uf.union(mine, first + offset),
                None => {
                    self.by_scheme.insert(scheme, first + offset);
                }
            }
        }
        self.members.append(&mut part.members);
        self.metas.append(&mut part.metas);
    }

    /// Records merged so far.
    pub fn len(&self) -> usize {
        self.uf.len()
    }

    /// Whether nothing has been merged.
    pub fn is_empty(&self) -> bool {
        self.uf.len() == 0
    }

    /// Resolve the clusters into [`Campaign`]s, ids assigned in order of
    /// each cluster's earliest member.
    pub fn finish(mut self) -> Vec<Campaign> {
        // Group members under their root, keyed by the cluster's earliest
        // node (BTreeMap gives ascending id assignment for free).
        let n = self.uf.len();
        let mut min_of_root: HashMap<usize, usize> = HashMap::new();
        for node in 0..n {
            let root = self.uf.find(node);
            let entry = min_of_root.entry(root).or_insert(node);
            *entry = (*entry).min(node);
        }
        let mut clusters: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for node in 0..n {
            let root = self.uf.find(node);
            clusters.entry(min_of_root[&root]).or_default().push(node);
        }

        clusters
            .into_values()
            .enumerate()
            .map(|(id, nodes)| {
                let mut campaign = Campaign {
                    id,
                    members: nodes.iter().map(|&x| self.members[x]).collect(),
                    message_ids: nodes.iter().map(|&x| self.metas[x].message_id).collect(),
                    domains: BTreeSet::new(),
                    cert_fingerprints: BTreeSet::new(),
                    phashes: BTreeSet::new(),
                    url_schemes: BTreeSet::new(),
                    classes: BTreeMap::new(),
                };
                for &node in &nodes {
                    let meta = &self.metas[node];
                    campaign.domains.extend(meta.domains.iter().cloned());
                    campaign
                        .cert_fingerprints
                        .extend(meta.cert_fingerprints.iter().copied());
                    campaign.phashes.extend(meta.phashes.iter().copied());
                    campaign
                        .url_schemes
                        .extend(meta.url_schemes.iter().cloned());
                    *campaign.classes.entry(meta.class).or_insert(0) += 1;
                }
                campaign
            })
            .collect()
    }
}

/// Cluster a single flat index into campaigns (all members report shard
/// 0). The multi-shard path is [`Store::campaigns`](crate::Store::campaigns).
///
/// Every record lands in exactly one cluster; records sharing no evidence
/// with anything else come back as singleton campaigns (filter on
/// [`Campaign::len`] for "real" campaigns).
pub fn cluster_campaigns(index: &StoreIndex) -> Vec<Campaign> {
    let mut clusterer = CampaignClusterer::new();
    clusterer.add_index(0, index);
    clusterer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::RecordMeta;
    use cb_phishgen::MessageClass;

    fn meta(seq: usize, phashes: &[u64], certs: &[u64], schemes: &[&str]) -> RecordMeta {
        RecordMeta {
            seq,
            message_id: seq,
            content_hash: seq as u128 + 1,
            class: MessageClass::ActivePhish,
            degraded: false,
            domains: vec![format!("d{seq}.example")],
            cert_fingerprints: certs.to_vec(),
            phashes: phashes.to_vec(),
            url_schemes: schemes.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Build an index holding exactly `metas` (via a private-but-testable
    /// route: re-deriving through insert would need full records, so the
    /// clustering is tested through a hand-rolled StoreIndex stand-in).
    fn cluster(metas: Vec<RecordMeta>) -> Vec<Campaign> {
        let mut index = StoreIndex::new();
        for m in metas {
            index.insert_meta_for_test(m);
        }
        cluster_campaigns(&index)
    }

    #[test]
    fn transitive_evidence_merges_clusters() {
        // 0 and 1 share a phash; 1 and 2 share a cert; 3 shares a URL
        // scheme with 4; 5 is alone.
        let campaigns = cluster(vec![
            meta(0, &[0xAA], &[], &[]),
            meta(1, &[0xAA], &[7], &[]),
            meta(2, &[], &[7], &[]),
            meta(3, &[], &[], &["a5/x16"]),
            meta(4, &[], &[], &["a5/x16"]),
            meta(5, &[0xBB], &[9], &["m9"]),
        ]);
        assert_eq!(campaigns.len(), 3);
        assert_eq!(
            campaigns[0].members,
            vec![(0, 0), (0, 1), (0, 2)],
            "transitively linked"
        );
        assert_eq!(campaigns[1].members, vec![(0, 3), (0, 4)]);
        assert_eq!(
            campaigns[2].members,
            vec![(0, 5)],
            "singleton survives as its own cluster"
        );
        assert_eq!(campaigns[0].id, 0);
        assert_eq!(campaigns[2].id, 2);
        assert_eq!(campaigns[0].phashes.len(), 1);
        assert_eq!(campaigns[0].cert_fingerprints.len(), 1);
        assert_eq!(campaigns[0].classes[&MessageClass::ActivePhish], 3);
    }

    #[test]
    fn empty_index_clusters_to_nothing() {
        assert!(cluster_campaigns(&StoreIndex::new()).is_empty());
    }

    #[test]
    fn absorb_matches_serial_clustering() {
        // Cross-fragment links on all three evidence axes, plus a
        // fragment-internal component and singletons.
        let mut a = StoreIndex::new();
        a.insert_meta_for_test(meta(0, &[0xAA], &[], &[]));
        a.insert_meta_for_test(meta(1, &[0xAA], &[7], &[]));
        a.insert_meta_for_test(meta(2, &[], &[], &["a5/x16"]));
        let mut b = StoreIndex::new();
        b.insert_meta_for_test(meta(0, &[], &[7], &[]));
        b.insert_meta_for_test(meta(1, &[], &[], &["a5/x16"]));
        b.insert_meta_for_test(meta(2, &[0xDD], &[], &[]));

        let mut serial = CampaignClusterer::new();
        serial.add_index(0, &a);
        serial.add_index(1, &b);

        let mut merged = CampaignClusterer::new();
        let mut frag_a = CampaignClusterer::new();
        frag_a.add_index(0, &a);
        let mut frag_b = CampaignClusterer::new();
        frag_b.add_index(1, &b);
        merged.absorb(frag_a);
        merged.absorb(frag_b);

        assert_eq!(serial.finish(), merged.finish());
    }

    #[test]
    fn evidence_links_across_shards() {
        // Shard 0 seq 0 and shard 3 seq 1 share a cert; shard 1 seq 0 is
        // alone. The representative from the first add_index must survive
        // into the later one.
        let mut a = StoreIndex::new();
        a.insert_meta_for_test(meta(0, &[], &[42], &[]));
        let mut b = StoreIndex::new();
        b.insert_meta_for_test(meta(0, &[0xCC], &[], &[]));
        let mut c = StoreIndex::new();
        c.insert_meta_for_test(meta(0, &[], &[], &[]));
        c.insert_meta_for_test(meta(1, &[], &[42], &[]));

        let mut clusterer = CampaignClusterer::new();
        clusterer.add_index(0, &a);
        clusterer.add_index(1, &b);
        clusterer.add_index(3, &c);
        let campaigns = clusterer.finish();
        assert_eq!(campaigns.len(), 3);
        assert_eq!(
            campaigns[0].members,
            vec![(0, 0), (3, 1)],
            "cert 42 links shard 0 to shard 3"
        );
        assert_eq!(campaigns[1].members, vec![(1, 0)]);
        assert_eq!(campaigns[2].members, vec![(3, 0)]);
    }
}
