// Package dht implements the replicated accusation repository of §3.4:
// formal accusations are inserted into a DHT living atop the secure
// overlay, keyed by the accused host's identity, and fetched by any host
// considering that peer. Inserts and fetches go to the replica set of
// ring members closest to the key, so a few faulty replicas cannot
// suppress an accusation.
package dht

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/overlay"
)

// DefaultReplicas is the replica-set size for each key.
const DefaultReplicas = 4

// Store is a replicated key-value store over the overlay membership.
// Values are opaque bytes; multiple distinct values may accumulate under
// one key (a host can be accused by many peers). Every current member
// of the ring is a replica: the ring is shared with the overlay, so a
// node that joins after New or Rebalance serves at once, its storage
// created on its first write and read as empty until then.
type Store struct {
	ring     *overlay.Ring
	replicas int
	nodes    map[id.ID]map[id.ID][][]byte // replica → key → values
	faulty   map[id.ID]bool

	met storeMetrics
}

// storeMetrics caches the store's metric handles; all nil (discard)
// until SetMetrics is called with a live registry.
type storeMetrics struct {
	puts, gets       *metrics.Counter
	putsDeg, getsDeg *metrics.Counter
	putWall, getWall *metrics.Histogram
	valueBytes       *metrics.Counter
}

// New creates a store replicating each key onto the `replicas` closest
// ring members.
func New(ring *overlay.Ring, replicas int) (*Store, error) {
	if ring == nil {
		return nil, fmt.Errorf("dht: nil ring")
	}
	if replicas <= 0 {
		return nil, fmt.Errorf("dht: replicas %d must be positive", replicas)
	}
	if replicas > ring.Size() {
		replicas = ring.Size()
	}
	return &Store{
		ring:     ring,
		replicas: replicas,
		nodes:    make(map[id.ID]map[id.ID][][]byte),
		faulty:   make(map[id.ID]bool),
	}, nil
}

// SetMetrics publishes the store's operation counters, degraded-op
// counters, stored bytes, and wall-clock op latencies into reg (names
// "dht/*"; latencies carry the reserved "_wallns" suffix). A nil
// registry disables publication.
func (s *Store) SetMetrics(reg *metrics.Registry) {
	s.met = storeMetrics{
		puts:       reg.Counter("dht/puts"),
		gets:       reg.Counter("dht/gets"),
		putsDeg:    reg.Counter("dht/puts_degraded"),
		getsDeg:    reg.Counter("dht/gets_degraded"),
		putWall:    reg.MustHistogram("dht/put_wallns", metrics.LatencyBuckets),
		getWall:    reg.MustHistogram("dht/get_wallns", metrics.LatencyBuckets),
		valueBytes: reg.Counter("dht/value_bytes"),
	}
}

// SetFaulty marks a replica as misbehaving: it drops writes and returns
// nothing on reads. Used by failure injection (tests and the chaos
// campaign's scheduled replica outages) to check that replication
// tolerates bad replicas. It accepts current members and any node still
// holding data — a crashed member marked faulty before the next
// Rebalance takes its data with it.
func (s *Store) SetFaulty(node id.ID, faulty bool) error {
	if _, held := s.nodes[node]; !held && !s.member(node) {
		return fmt.Errorf("dht: unknown node %s", node.Short())
	}
	s.faulty[node] = faulty
	return nil
}

func (s *Store) member(node id.ID) bool {
	_, ok := s.ring.IndexOf(node)
	return ok
}

// Health describes how much of a key's replica set answered an
// operation. Live < Total is a degraded (but successful) operation;
// Live == 0 is a total outage the caller must be told about.
type Health struct {
	// Live is the number of replicas that served the operation.
	Live int
	// Total is the size of the key's replica set.
	Total int
}

// Degraded reports a partial replica set.
func (h Health) Degraded() bool { return h.Live < h.Total }

// Quorum reports whether a strict majority of the replica set was live.
// Campaigns that keep concurrent outages below half the replica set get
// read-your-writes durability at every instant, not just after repair.
func (h Health) Quorum() bool { return 2*h.Live > h.Total }

// ReplicaSet returns the members responsible for key, nearest first.
// The members within any ring distance of key form one arc around it,
// so the nearest are found by walking outward from key's position in
// the sorted ring, each step taking the closer of the next member on
// either side — a binary search plus `replicas` comparisons.
func (s *Store) ReplicaSet(key id.ID) []id.ID {
	members := s.ring.Members()
	n := len(members)
	out := make([]id.ID, 0, min(s.replicas, n))
	// cw and ccw are the untaken members next to key on each side; they
	// name the same member when one is left.
	cw := sort.Search(n, func(i int) bool { return !id.Less(members[i], key) }) % n
	ccw := (cw + n - 1) % n
	for len(out) < cap(out) {
		if cw == ccw || id.Closer(members[cw], members[ccw], key) {
			out = append(out, members[cw])
			cw = (cw + 1) % n
		} else {
			out = append(out, members[ccw])
			ccw = (ccw + n - 1) % n
		}
	}
	return out
}

// Put stores value under key on every live replica. It fails only when
// every replica is faulty.
func (s *Store) Put(key id.ID, value []byte) error {
	_, err := s.PutChecked(key, value)
	return err
}

// PutChecked stores value under key on every live replica, falling back
// across the replica set, and reports how many replicas accepted the
// write. It fails only when every replica is faulty; a degraded health
// (Live < Total) means the write landed but with reduced durability.
func (s *Store) PutChecked(key id.ID, value []byte) (Health, error) {
	start := time.Now()
	defer func() { s.met.putWall.ObserveDuration(time.Since(start)) }()
	h := Health{Total: s.replicas}
	if len(value) == 0 {
		return h, fmt.Errorf("dht: empty value")
	}
	s.met.puts.Inc()
	s.met.valueBytes.Add(uint64(len(value)))
	for _, r := range s.ReplicaSet(key) {
		if s.faulty[r] {
			continue
		}
		ns := s.nodes[r]
		if ns == nil {
			ns = make(map[id.ID][][]byte)
			s.nodes[r] = ns
		}
		// Deduplicate identical values on the same replica.
		dup := false
		for _, v := range ns[key] {
			if bytes.Equal(v, value) {
				dup = true
				break
			}
		}
		if !dup {
			cp := append([]byte(nil), value...)
			ns[key] = append(ns[key], cp)
		}
		h.Live++
	}
	if h.Live == 0 {
		return h, fmt.Errorf("dht: all %d replicas for %s are faulty", s.replicas, key.Short())
	}
	if h.Degraded() {
		s.met.putsDeg.Inc()
	}
	return h, nil
}

// GetChecked returns the distinct values stored under key across the
// live members of the replica set, in first-seen order, plus the read's
// replica health. A fetch that reached no replica at all returns an
// error rather than a silently empty result — callers can distinguish
// "nothing is stored" (nil values, nil error) from "the whole replica
// set is down" (error).
func (s *Store) GetChecked(key id.ID) ([][]byte, Health, error) {
	start := time.Now()
	defer func() { s.met.getWall.ObserveDuration(time.Since(start)) }()
	s.met.gets.Inc()
	h := Health{Total: s.replicas}
	var out [][]byte
	seen := make(map[string]bool)
	for _, r := range s.ReplicaSet(key) {
		if s.faulty[r] {
			continue
		}
		h.Live++
		for _, v := range s.nodes[r][key] {
			k := string(v)
			if !seen[k] {
				seen[k] = true
				out = append(out, append([]byte(nil), v...))
			}
		}
	}
	if h.Live == 0 {
		return nil, h, fmt.Errorf("dht: all %d replicas for %s are faulty", s.replicas, key.Short())
	}
	if h.Degraded() {
		s.met.getsDeg.Inc()
	}
	return out, h, nil
}

// KeyHealth reports the current replica health of a key without reading
// its values.
func (s *Store) KeyHealth(key id.ID) Health {
	h := Health{Total: s.replicas}
	for _, r := range s.ReplicaSet(key) {
		if !s.faulty[r] {
			h.Live++
		}
	}
	return h
}

// Load returns the number of keys a node is responsible for — used to
// check replica balance.
func (s *Store) Load(node id.ID) int { return len(s.nodes[node]) }

// Rebalance migrates the store onto a new membership ring: every value
// still held by a live replica is re-homed onto the key's new replica
// set. Values whose every replica departed or turned faulty are lost —
// the availability bound replication buys. Accusation durability across
// churn therefore depends on the replica count relative to the churn
// rate, exactly as in a deployed DHT.
func (s *Store) Rebalance(newRing *overlay.Ring) error {
	if newRing == nil {
		return fmt.Errorf("dht: nil ring")
	}
	// Collect surviving values from every replica holding data that is
	// not faulty (faulty nodes contribute nothing), in ascending node
	// order: replicas can hold one key's values in different orders
	// (one missed a write during an outage), and the first holder
	// visited fixes the order the new replica set stores and returns.
	type kv struct {
		key   id.ID
		value []byte
	}
	holders := make([]id.ID, 0, len(s.nodes))
	for node := range s.nodes {
		if !s.faulty[node] {
			holders = append(holders, node)
		}
	}
	sort.Slice(holders, func(i, j int) bool { return id.Less(holders[i], holders[j]) })
	var survivors []kv
	seen := make(map[string]bool)
	for _, node := range holders {
		for key, values := range s.nodes[node] {
			for _, v := range values {
				dedupe := string(key[:]) + "\x00" + string(v)
				if !seen[dedupe] {
					seen[dedupe] = true
					survivors = append(survivors, kv{key: key, value: v})
				}
			}
		}
	}

	replicas := s.replicas
	if replicas > newRing.Size() {
		replicas = newRing.Size()
	}
	faulty := make(map[id.ID]bool)
	for _, m := range newRing.Members() {
		if s.faulty[m] {
			faulty[m] = true // a faulty node stays faulty across churn
		}
	}
	s.ring = newRing
	s.replicas = replicas
	s.nodes = make(map[id.ID]map[id.ID][][]byte)
	s.faulty = faulty

	for _, item := range survivors {
		// Best effort: a key whose whole new replica set is faulty is
		// dropped rather than failing the rebalance.
		_ = s.Put(item.key, item.value)
	}
	return nil
}
