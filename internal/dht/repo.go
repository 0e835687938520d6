package dht

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/netsim"
)

// Repository-hardening errors. All three reject a publish without
// touching the store; callers distinguish them from verification
// failures when tallying abuse.
var (
	// ErrRateLimited indicates the per-key or per-accuser accusation
	// cap was reached — the accusation-flood defense.
	ErrRateLimited = errors.New("dht: accusation rate limit exceeded")
	// ErrDuplicateChain indicates a byte-identical chain is already on
	// file for this culprit — the replay-flood defense.
	ErrDuplicateChain = errors.New("dht: duplicate accusation chain")
	// ErrStaleChain indicates the chain's final verdict is older than
	// the staleness bound at publish time — the stale-evidence-replay
	// defense.
	ErrStaleChain = errors.New("dht: stale accusation chain")
)

// RepoLimits hardens the repository against accusation floods and
// replays. Zero values disable the corresponding check, preserving the
// unhardened behavior.
type RepoLimits struct {
	// MaxPerAccuserPerKey caps how many chains one accuser — the
	// chain's final, convicting accuser — may have on file against one
	// culprit.
	MaxPerAccuserPerKey int
	// MaxPerKey caps the total chains on file against one culprit.
	MaxPerKey int
	// StaleAfter rejects chains whose final verdict is older than this
	// at publish time. Only PublishAt carries a clock, so Publish
	// never applies it.
	StaleAfter time.Duration
}

// Validate reports the first invalid field.
func (l RepoLimits) Validate() error {
	switch {
	case l.MaxPerAccuserPerKey < 0:
		return fmt.Errorf("dht: per-accuser cap %d negative", l.MaxPerAccuserPerKey)
	case l.MaxPerKey < 0:
		return fmt.Errorf("dht: per-key cap %d negative", l.MaxPerKey)
	case l.MaxPerKey > 0 && l.MaxPerAccuserPerKey > l.MaxPerKey:
		return fmt.Errorf("dht: per-accuser cap %d exceeds per-key cap %d",
			l.MaxPerAccuserPerKey, l.MaxPerKey)
	case l.StaleAfter < 0:
		return fmt.Errorf("dht: staleness bound %v negative", l.StaleAfter)
	}
	return nil
}

// accuserKey indexes the per-accuser rate limit.
type accuserKey struct {
	culprit id.ID
	accuser id.ID
}

// AccusationRepo stores self-verifying revision chains in the DHT under
// the accused host's identity. Fetches re-verify every chain, so a
// faulty replica can at worst suppress an accusation it holds — it
// cannot forge one (§3.4).
type AccusationRepo struct {
	store *Store
	keys  core.KeyDirectory
	// threshold is the verifier's guilty threshold for accepting chains.
	threshold float64

	limits     RepoLimits
	perKey     map[id.ID]int
	perAccuser map[accuserKey]int
	seen       map[id.ID]map[[sha256.Size]byte]bool

	published   *metrics.Counter
	accBytes    *metrics.Counter
	rejected    *metrics.Counter
	rateLimited *metrics.Counter
	duplicates  *metrics.Counter
	stale       *metrics.Counter
}

// NewAccusationRepo wraps a store with chain verification.
func NewAccusationRepo(store *Store, keys core.KeyDirectory, threshold float64) (*AccusationRepo, error) {
	if store == nil || keys == nil {
		return nil, fmt.Errorf("dht: accusation repo requires store and keys")
	}
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("dht: threshold %v out of (0,1)", threshold)
	}
	return &AccusationRepo{
		store:      store,
		keys:       keys,
		threshold:  threshold,
		perKey:     make(map[id.ID]int),
		perAccuser: make(map[accuserKey]int),
		seen:       make(map[id.ID]map[[sha256.Size]byte]bool),
	}, nil
}

// SetLimits installs the repository's hardening limits.
func (r *AccusationRepo) SetLimits(l RepoLimits) error {
	if err := l.Validate(); err != nil {
		return err
	}
	r.limits = l
	return nil
}

// Limits returns the active hardening limits.
func (r *AccusationRepo) Limits() RepoLimits { return r.limits }

// SetMetrics publishes accusation-repo volume into reg: chains
// published and rejected, the exact encoded bytes-on-wire of the
// accusation message class, and the three hardening rejection counters
// (rate-limit trips, duplicate floods, stale replays). A nil registry
// disables publication.
func (r *AccusationRepo) SetMetrics(reg *metrics.Registry) {
	r.published = reg.Counter("dht/chains_published")
	r.rejected = reg.Counter("dht/chains_rejected")
	r.accBytes = reg.Counter("wire/accusation_bytes")
	r.rateLimited = reg.Counter("dht/chains_rate_limited")
	r.duplicates = reg.Counter("dht/chains_duplicate")
	r.stale = reg.Counter("dht/chains_stale")
}

// Publish verifies and stores an amended accusation under its culprit.
// It carries no clock, so the staleness bound is not applied; rate and
// duplicate limits are.
func (r *AccusationRepo) Publish(chain *core.RevisionChain) error {
	return r.publishAt(chain, 0, false)
}

// PublishAt is Publish with the publish-time clock, enabling the
// staleness check: chains whose final verdict predates now by more
// than StaleAfter are rejected as replays of old evidence.
func (r *AccusationRepo) PublishAt(chain *core.RevisionChain, now netsim.Time) error {
	return r.publishAt(chain, now, true)
}

func (r *AccusationRepo) publishAt(chain *core.RevisionChain, now netsim.Time, timed bool) error {
	if chain == nil {
		return fmt.Errorf("dht: nil chain")
	}
	if err := chain.Verify(r.keys, r.threshold); err != nil {
		r.rejected.Inc()
		return fmt.Errorf("dht: refusing to publish unverifiable chain: %w", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(chain); err != nil {
		return fmt.Errorf("dht: encode chain: %w", err)
	}
	culprit := chain.Culprit()
	digest := sha256.Sum256(buf.Bytes())
	if r.seen[culprit][digest] {
		r.duplicates.Inc()
		return fmt.Errorf("%w: culprit %s", ErrDuplicateChain, culprit.Short())
	}
	last := chain.Links[len(chain.Links)-1]
	if timed && r.limits.StaleAfter > 0 && now.Sub(last.At) > r.limits.StaleAfter {
		r.stale.Inc()
		return fmt.Errorf("%w: verdict aged %v past the %v bound",
			ErrStaleChain, now.Sub(last.At), r.limits.StaleAfter)
	}
	if m := r.limits.MaxPerKey; m > 0 && r.perKey[culprit] >= m {
		r.rateLimited.Inc()
		return fmt.Errorf("%w: %d chains on file against %s", ErrRateLimited, r.perKey[culprit], culprit.Short())
	}
	ak := accuserKey{culprit: culprit, accuser: last.Accuser}
	if m := r.limits.MaxPerAccuserPerKey; m > 0 && r.perAccuser[ak] >= m {
		r.rateLimited.Inc()
		return fmt.Errorf("%w: accuser %s already has %d chains against %s",
			ErrRateLimited, last.Accuser.Short(), r.perAccuser[ak], culprit.Short())
	}
	if err := r.store.Put(culprit, buf.Bytes()); err != nil {
		return err
	}
	if r.seen[culprit] == nil {
		r.seen[culprit] = make(map[[sha256.Size]byte]bool)
	}
	r.seen[culprit][digest] = true
	r.perKey[culprit]++
	r.perAccuser[ak]++
	r.published.Inc()
	r.accBytes.Add(uint64(buf.Len()))
	return nil
}

// Fetch returns every verifiable accusation chain against the accused.
// Chains that fail verification are silently dropped — a corrupt
// replica cannot manufacture reputation damage. A total replica outage
// is reported as an error, never as an empty result.
func (r *AccusationRepo) Fetch(accused id.ID) ([]*core.RevisionChain, error) {
	chains, _, err := r.FetchChecked(accused)
	return chains, err
}

// FetchChecked is Fetch plus the replica health of the read, so callers
// (the chaos campaign's durability invariant) can tell a full-quorum
// answer from a degraded one.
func (r *AccusationRepo) FetchChecked(accused id.ID) ([]*core.RevisionChain, Health, error) {
	raws, health, err := r.store.GetChecked(accused)
	if err != nil {
		return nil, health, fmt.Errorf("dht: fetch %s: %w", accused.Short(), err)
	}
	var out []*core.RevisionChain
	for _, raw := range raws {
		var chain core.RevisionChain
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&chain); err != nil {
			continue // corrupt bytes from a bad replica
		}
		if chain.Verify(r.keys, r.threshold) != nil {
			continue
		}
		if chain.Culprit() != accused {
			continue
		}
		out = append(out, &chain)
	}
	return out, health, nil
}

// Count returns the number of verifiable accusations against accused:
// the record a §3.7 sanction would be decided on.
func (r *AccusationRepo) Count(accused id.ID) (int, error) {
	chains, err := r.Fetch(accused)
	if err != nil {
		return 0, err
	}
	return len(chains), nil
}

// CountBy returns the number of distinct accuser groups with
// verifiable chains on file against accused — the clique-discounted
// variant of Count. With a grouping that collapses suspected colluders
// (core.CliqueSuspector.Group), k co-signing clique members sanction
// as one accuser instead of k independent witnesses. A nil group
// counts distinct accusers.
func (r *AccusationRepo) CountBy(accused id.ID, group func(id.ID) id.ID) (int, error) {
	chains, err := r.Fetch(accused)
	if err != nil {
		return 0, err
	}
	groups := make(map[id.ID]bool, len(chains))
	for _, chain := range chains {
		acc := chain.Links[len(chain.Links)-1].Accuser
		if group != nil {
			acc = group(acc)
		}
		groups[acc] = true
	}
	return len(groups), nil
}
