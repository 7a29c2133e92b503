package node

import (
	"encoding/binary"
	"sort"

	"repro/internal/transport"
)

// Anti-entropy: periodic Merkle-digest exchange between a partition's
// holders, repairing divergence without waiting for a quorum read to
// touch the stale key (Leslie, "Reliable Data Storage in DHTs").
//
// The digest is a two-level tree: aeSubCount (64×64) sub-buckets, each
// an XOR of its entries' record hashes, folded into aeTop top-level
// buckets. Every AEInterval-th epoch each resident partition primary
// piggybacks its top digest (64 leaves + root) on the KindStats
// broadcast it already sends — anti-entropy costs zero dedicated frames
// while the cluster is in sync. A co-holder whose tree disagrees pulls:
// it sends the divergent top buckets with its own sub-leaf vectors
// (KindAEDigest), gets back the primary's (key, version) lists for the
// divergent sub-buckets, then fetches exactly the keys it is missing or
// has stale (KindAEFetch) and pushes back any keys the primary lacks
// (KindAERepair). Values only ever move for keys proven divergent, so a
// one-key divergence on a large partition repairs with one key.
// Both directions merge version-gated through the store, so a repair
// can never roll a key back — the exchange is idempotent and safe to
// replay, duplicate or delay arbitrarily, which is what the chaos
// fault plane does to it.

// Tree shape: aeTop top-level buckets of aeFanout sub-buckets each.
// The top digest (64 × 8 bytes) rides the stats broadcast; sub-leaf
// vectors only move for divergent top buckets, and keylists only for
// divergent sub-buckets, so payloads shrink geometrically with each
// round. With a uniform key hash a single divergent key dirties one
// sub-bucket holding ~1/4096th of the partition's keys.
const (
	aeTop      = 64
	aeFanout   = 64
	aeSubCount = aeTop * aeFanout
)

// fnv-1a 64 parameters, written out because the tree hashes millions
// of entries in the bench path and the stdlib hash.Hash64 interface
// would allocate per entry.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// aeSub maps a key to its sub-bucket. Deliberately NOT ring.HashString:
// partition membership is already a function of the ring hash, and
// deriving buckets from the same value would correlate bucket occupancy
// with partition assignment instead of spreading a partition's keys
// uniformly across its own tree.
func aeSub(key string) int {
	return int(fnvString(fnvOffset, key) % aeSubCount)
}

// aeBucket maps a key to its top-level bucket (its sub-bucket's group).
func aeBucket(key string) int {
	return aeSub(key) / aeFanout
}

// aeEntryHash digests one (key, version, value) record. The version
// sits between key and value with a fixed width, so no two distinct
// records can collide by concatenation ambiguity.
func aeEntryHash(key string, ver uint64, val []byte) uint64 {
	h := fnvString(fnvOffset, key)
	var vb [8]byte
	binary.BigEndian.PutUint64(vb[:], ver)
	h = fnvBytes(h, vb[:])
	return fnvBytes(h, val)
}

// AETree is one partition's anti-entropy digest: aeSubCount sub-bucket
// leaves, each holding the XOR of its entries' record hashes, plus the
// aeTop top-level buckets maintained as the XOR of their sub-leaves.
// XOR makes every level order-independent and incrementally
// maintainable — applying the same record twice removes it, so an
// update is Apply(old) followed by Apply(new), O(1) per write. Exported
// (with NewAETree/Apply/Root) so rfhbench can hold the digest cost on a
// committed leash.
type AETree struct {
	sub [aeSubCount]uint64
	top [aeTop]uint64
}

// NewAETree returns an empty tree (the digest of an empty partition).
func NewAETree() *AETree { return &AETree{} }

// Apply XORs one record into its sub-bucket and the covering top
// bucket: call once to add a record, again with identical arguments to
// remove it.
func (t *AETree) Apply(key string, ver uint64, val []byte) {
	h := aeEntryHash(key, ver, val)
	s := aeSub(key)
	t.sub[s] ^= h
	t.top[s/aeFanout] ^= h
}

// Leaves returns the top-level hash vector (a copy; the piggybacked
// wire payload).
func (t *AETree) Leaves() []uint64 {
	out := make([]uint64, aeTop)
	copy(out, t.top[:])
	return out
}

// SubLeaves returns the sub-leaf vector of one top-level bucket (a
// copy; the KindAEDigest request payload).
func (t *AETree) SubLeaves(top int) []uint64 {
	out := make([]uint64, aeFanout)
	copy(out, t.sub[top*aeFanout:(top+1)*aeFanout])
	return out
}

// Root folds the top leaves pairwise up to the 8-byte root. The fold is
// order-sensitive (unlike the leaves), so two trees agreeing on the
// root agree on the whole top vector with hash-level confidence.
func (t *AETree) Root() uint64 {
	var lvl [aeTop]uint64
	copy(lvl[:], t.top[:])
	for n := aeTop; n > 1; n /= 2 {
		for i := 0; i < n/2; i++ {
			var b [16]byte
			binary.BigEndian.PutUint64(b[:8], lvl[2*i])
			binary.BigEndian.PutUint64(b[8:], lvl[2*i+1])
			lvl[i] = fnvBytes(fnvOffset, b[:])
		}
	}
	return lvl[0]
}

// buildAETree digests an entry block (the canonical snapshotEntries
// form). Order-independent by construction, so the sorted input is a
// convenience, not a requirement.
func buildAETree(entries []kvEntry) *AETree {
	t := &AETree{}
	for _, e := range entries {
		t.Apply(e.key, e.ver, e.val)
	}
	return t
}

// AEStats counts anti-entropy activity for DumpInfo and tests.
type AEStats struct {
	// Rounds is how many top digests this node published as primary
	// (one per partition per AEInterval boundary, piggybacked on the
	// stats broadcast).
	Rounds int64 `json:"rounds"`
	// Synced counts digest comparisons that found this holder identical
	// to the primary.
	Synced int64 `json:"synced"`
	// Repairs counts value-bearing repair payloads this node shipped:
	// fetch replies served as primary plus backflow pushes as holder.
	Repairs int64 `json:"repairs"`
	// Healed counts entries merged INTO this node by anti-entropy —
	// holder-side fetches plus primary-side backflow from holders.
	Healed int64 `json:"healed"`
	// PayloadBytes sums the AE payload bytes this node put on the wire:
	// sub-digest requests, keylist replies, fetch requests and replies,
	// and backflow pushes, each counted at its sender.
	PayloadBytes int64 `json:"payload_bytes"`
}

// AEStats returns the node's anti-entropy counters.
func (n *Node) AEStats() AEStats {
	return AEStats{
		Rounds:       n.aeRoundsN.Load(),
		Synced:       n.aeSyncedN.Load(),
		Repairs:      n.aeRepairsN.Load(),
		Healed:       n.aeHealedN.Load(),
		PayloadBytes: n.aePayloadN.Load(),
	}
}

// aeDigestsLocked builds, under n.mu, the top digests this node
// piggybacks on its stats broadcast: every AEInterval-th epoch, one per
// partition this node primaries with resident local data and at least
// one co-holder. A recovering node publishes nothing — its view is not
// yet trustworthy.
func (n *Node) aeDigestsLocked() []aePartitionDigest {
	iv := n.cfg.AEInterval
	if iv <= 0 || n.recovering || n.epoch%uint64(iv) != 0 {
		return nil
	}
	var digests []aePartitionDigest
	for p := 0; p < n.cfg.Partitions; p++ {
		if n.view.primary(p) != n.self {
			continue
		}
		coheld := false
		for _, s := range n.view.cluster.ReplicaServers(p) {
			if int(s) != n.self {
				coheld = true
				break
			}
		}
		if !coheld {
			continue
		}
		// The store maintains the digest incrementally, so publishing
		// costs O(1) per partition — no rehash on the epoch path.
		leaves, root, resident := n.store.aeDigest(p)
		if !resident {
			continue
		}
		digests = append(digests, aePartitionDigest{partition: p, root: root, leaves: leaves})
		n.aeRoundsN.Add(1)
	}
	return digests
}

// aePull is one holder-side reconciliation planned from a piggybacked
// digest: the partition, the primary that published it, and the
// published top digest to compare against.
type aePull struct {
	p       int
	primary int
	epoch   uint64
	root    uint64
	leaves  []uint64
}

// aePullPlansLocked scans, under n.mu, the epoch's folded stats blobs
// for piggybacked digests this node should reconcile against: the
// sender must be the partition's primary in this node's own view, and
// this node must be a resident co-holder. A recovering node plans
// nothing. Blobs are scanned in roster order and digests arrive in
// ascending partition order, so the pull sequence is deterministic (the
// chaos fault plane's RNG draw order depends on it).
func (n *Node) aePullPlansLocked() []aePull {
	if n.cfg.AEInterval <= 0 || n.recovering {
		return nil
	}
	var pulls []aePull
	for i, blob := range n.pending {
		if blob == nil || i == n.self {
			continue
		}
		for _, d := range blob.digests {
			p := d.partition
			if n.view.primary(p) != i || !n.view.hasReplica(p, n.self) || !n.store.isResident(p) {
				continue
			}
			pulls = append(pulls, aePull{p: p, primary: i, epoch: n.epoch, root: d.root, leaves: d.leaves})
		}
	}
	return pulls
}

// runAEPulls executes the planned reconciliations. Every failure mode
// is soft: a dropped frame, a refusing primary or a malformed payload
// just leaves the divergence for the next round (or for read-repair or
// replica shipping to catch first).
//
//lint:requires-unlocked n.mu
func (n *Node) runAEPulls(pulls []aePull) {
	for _, pl := range pulls {
		mine, root, resident := n.store.aeDigest(pl.p)
		if !resident {
			continue // residency was lost between planning and here
		}
		if len(pl.leaves) == aeTop && root == pl.root {
			n.aeSyncedN.Add(1)
			continue
		}
		// Divergent top buckets. A malformed leaf count marks every
		// bucket divergent — the sub round then re-establishes truth.
		var tops []int
		for b := 0; b < aeTop; b++ {
			if b >= len(pl.leaves) || pl.leaves[b] != mine[b] {
				tops = append(tops, b)
			}
		}
		if len(tops) == 0 {
			// Leaves agree but the root does not (or the vector was
			// oversized): treat the whole tree as divergent.
			for b := 0; b < aeTop; b++ {
				tops = append(tops, b)
			}
		}
		subs := n.store.aeSubLeaves(pl.p, tops)
		req := appendAESub(nil, tops, subs)
		n.aePayloadN.Add(int64(len(req)))
		resp, err := n.tr.Send(n.peerAddr(pl.primary), &transport.Message{
			Kind:      KindAEDigest,
			Partition: uint32(pl.p),
			Epoch:     pl.epoch,
			Origin:    uint32(n.self),
			Value:     req,
		})
		if err != nil || resp.Status != transport.StatusOK {
			continue
		}
		subIdx, lists, err := decodeAEKeylists(resp.Value)
		if err != nil {
			continue
		}
		// Index the local copy of the listed sub-buckets. entries is in
		// ascending key order, so per-bucket key order is deterministic.
		entries, _ := n.store.snapshotEntries(pl.p)
		listed := make(map[int]bool, len(subIdx))
		for _, s := range subIdx {
			listed[s] = true
		}
		localVer := make(map[string]uint64)
		localBySub := make(map[int][]kvEntry)
		for _, e := range entries {
			if s := aeSub(e.key); listed[s] {
				localVer[e.key] = e.ver
				localBySub[s] = append(localBySub[s], e)
			}
		}
		// Fetch what the primary proved newer or unknown here; push back
		// what this holder has that the primary lacks or has stale.
		primVer := make(map[string]uint64)
		var fetch []string
		for _, list := range lists {
			for _, kv := range list {
				primVer[kv.key] = kv.ver
				if lv, ok := localVer[kv.key]; !ok || lv < kv.ver {
					fetch = append(fetch, kv.key)
				}
			}
		}
		var push []kvEntry
		for _, s := range subIdx {
			for _, e := range localBySub[s] {
				if pv, ok := primVer[e.key]; !ok || pv < e.ver {
					push = append(push, e)
				}
			}
		}
		if len(fetch) > 0 {
			freq := appendAEKeys(nil, fetch)
			n.aePayloadN.Add(int64(len(freq)))
			resp, err := n.tr.Send(n.peerAddr(pl.primary), &transport.Message{
				Kind:      KindAEFetch,
				Partition: uint32(pl.p),
				Epoch:     pl.epoch,
				Origin:    uint32(n.self),
				Value:     freq,
			})
			if err == nil && resp.Status == transport.StatusOK {
				if got, derr := decodeEntries(resp.Value); derr == nil {
					if merged, applied, merr := n.store.mergeResident(pl.p, got); merr == nil && applied && merged > 0 {
						n.aeHealedN.Add(int64(merged))
					}
				}
			}
		}
		if len(push) > 0 {
			buf := appendEntries(nil, push)
			n.aePayloadN.Add(int64(len(buf)))
			n.aeRepairsN.Add(1)
			if _, err := n.tr.Send(n.peerAddr(pl.primary), &transport.Message{
				Kind:      KindAERepair,
				Partition: uint32(pl.p),
				Epoch:     pl.epoch,
				Origin:    uint32(n.self),
				Value:     buf,
			}); err != nil {
				continue // the primary stays divergent until the next round
			}
		}
	}
}

// handleAEDigest answers a holder's sub-digest request with this
// primary's keylists: a non-resident or non-holder receiver refuses
// (its tree would compare garbage); otherwise the reply lists, for
// every divergent sub-bucket of the requested top buckets, this node's
// (key, version) pairs — including empty lists for sub-buckets where
// the holder has data this node lacks entirely.
func (n *Node) handleAEDigest(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	tops, theirSubs, err := decodeAESub(req.Value)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	holder := n.view.hasReplica(p, n.self) && !n.recovering
	n.mu.RUnlock()
	if !holder || !n.store.isResident(p) {
		return &transport.Message{Kind: KindAEDigest, Partition: req.Partition, Status: transport.StatusRetry}, nil
	}
	mineSubs := n.store.aeSubLeaves(p, tops)
	divergent := make(map[int]bool)
	for i, b := range tops {
		for j := 0; j < aeFanout; j++ {
			if s := b*aeFanout + j; mineSubs[i][j] != theirSubs[i][j] {
				divergent[s] = true
			}
		}
	}
	subIdx := make([]int, 0, len(divergent))
	for s := range divergent {
		subIdx = append(subIdx, s)
	}
	sort.Ints(subIdx)
	bySub := make(map[int][]aeKeyVer)
	if len(divergent) > 0 {
		entries, _ := n.store.snapshotEntries(p)
		for _, e := range entries {
			if s := aeSub(e.key); divergent[s] {
				bySub[s] = append(bySub[s], aeKeyVer{key: e.key, ver: e.ver})
			}
		}
	}
	lists := make([][]aeKeyVer, len(subIdx))
	for i, s := range subIdx {
		lists[i] = bySub[s]
	}
	reply := appendAEKeylists(nil, subIdx, lists)
	n.aePayloadN.Add(int64(len(reply)))
	return &transport.Message{Kind: KindAEDigest, Partition: req.Partition, Value: reply}, nil
}

// handleAEFetch serves the values for the keys a holder proved stale or
// missing. Keys the primary no longer has are simply absent from the
// reply (the next digest round settles them); a non-resident receiver
// refuses.
func (n *Node) handleAEFetch(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	keys, err := decodeAEKeys(req.Value)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	holder := n.view.hasReplica(p, n.self) && !n.recovering
	n.mu.RUnlock()
	if !holder || !n.store.isResident(p) {
		return &transport.Message{Kind: KindAEFetch, Partition: req.Partition, Status: transport.StatusRetry}, nil
	}
	found := n.store.getEntries(p, keys)
	reply := appendEntries(nil, found)
	if len(found) > 0 {
		n.aeRepairsN.Add(1)
	}
	n.aePayloadN.Add(int64(len(reply)))
	return &transport.Message{Kind: KindAEFetch, Partition: req.Partition, Value: reply}, nil
}

// handleAERepair folds a holder's backflow payload in, version-gated
// and only into an already-resident copy — residency is a transfer
// protocol decision, never an anti-entropy side effect.
func (n *Node) handleAERepair(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	entries, err := decodeEntries(req.Value)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	holder := n.view.hasReplica(p, n.self) && !n.recovering
	var merged int
	applied := false
	if holder {
		merged, applied, err = n.store.mergeResident(p, entries)
	}
	n.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if !applied {
		return &transport.Message{Kind: KindAERepair, Partition: req.Partition, Status: transport.StatusRetry}, nil
	}
	if merged > 0 {
		n.aeHealedN.Add(int64(merged))
	}
	return &transport.Message{Kind: KindAERepair, Partition: req.Partition}, nil
}
