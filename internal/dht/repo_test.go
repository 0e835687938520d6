package dht

import (
	"crypto/ed25519"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/netsim"
	"concilium/internal/sigcrypto"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// repoFixture holds a population of signing identities and a blame
// engine over an empty archive (which yields guilty verdicts — the
// paper's Eq. 2 on zero evidence), so tests can mint verifiable chains
// from arbitrary accuser sets.
type repoFixture struct {
	t   testing.TB
	dir map[id.ID]ed25519.PublicKey
	kp  map[id.ID]sigcrypto.KeyPair
	eng *core.BlameEngine
}

func newRepoFixture(t testing.TB, r *rand.Rand, n int) (*repoFixture, []id.ID) {
	t.Helper()
	f := &repoFixture{
		t:   t,
		dir: make(map[id.ID]ed25519.PublicKey),
		kp:  make(map[id.ID]sigcrypto.KeyPair),
	}
	ids := make([]id.ID, n)
	for i := range ids {
		ids[i] = id.Random(r)
		kp := sigcrypto.KeyPairFromSeed(sigcrypto.SeedFromRand(r))
		f.dir[ids[i]] = kp.Public
		f.kp[ids[i]] = kp
	}
	eng, err := core.NewBlameEngine(tomography.NewArchive(0), noProbers{}, core.DefaultBlameConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.eng = eng
	return f, ids
}

// noProbers names the probers of an archive nobody recorded in.
type noProbers struct{}

func (noProbers) ProberHandle(id.ID) tomography.ProberHandle { return 0 }
func (noProbers) ProberID(tomography.ProberHandle) id.ID     { return id.ID{} }

func (f *repoFixture) keys() core.KeyDirectory {
	return func(x id.ID) (ed25519.PublicKey, bool) { k, ok := f.dir[x]; return k, ok }
}

// chain mints a verifiable revision chain along path (accusers...,
// culprit) for msgID, with every verdict issued at the given time.
func (f *repoFixture) chain(path []id.ID, msgID uint64, at netsim.Time) *core.RevisionChain {
	f.t.Helper()
	links := make([]core.Accusation, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		accuser, accused := path[i], path[i+1]
		res, err := f.eng.Blame(accused, []topology.LinkID{1}, at)
		if err != nil {
			f.t.Fatal(err)
		}
		commit := core.NewCommitment(f.kp[accused], accuser, accused, path[len(path)-1], msgID, at)
		acc, err := core.NewAccusation(f.kp[accuser], accuser, res, msgID, []topology.LinkID{1}, commit)
		if err != nil {
			f.t.Fatal(err)
		}
		links = append(links, acc)
	}
	chain, err := core.NewRevisionChain(links)
	if err != nil {
		f.t.Fatal(err)
	}
	return chain
}

func (f *repoFixture) repo(t *testing.T, r *rand.Rand, limits RepoLimits) (*AccusationRepo, *metrics.Registry) {
	t.Helper()
	ring, _ := testRing(t, 20, r)
	store, err := New(ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := NewAccusationRepo(store, f.keys(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.SetLimits(limits); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	repo.SetMetrics(reg)
	return repo, reg
}

func TestRepoLimitsValidate(t *testing.T) {
	t.Parallel()
	cases := []RepoLimits{
		{MaxPerAccuserPerKey: -1},
		{MaxPerKey: -1},
		{StaleAfter: -time.Second},
		{MaxPerAccuserPerKey: 5, MaxPerKey: 2},
	}
	for _, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("limits %+v accepted", l)
		}
	}
	if err := (RepoLimits{}).Validate(); err != nil {
		t.Errorf("zero limits rejected: %v", err)
	}
	if err := (RepoLimits{MaxPerAccuserPerKey: 1, MaxPerKey: 8, StaleAfter: time.Minute}).Validate(); err != nil {
		t.Errorf("sane limits rejected: %v", err)
	}
}

func TestRepoPerAccuserRateLimit(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(41, 42))
	f, ids := newRepoFixture(t, r, 5)
	repo, reg := f.repo(t, r, RepoLimits{MaxPerAccuserPerKey: 1})
	victim, spammer, other := ids[0], ids[1], ids[2]

	if err := repo.Publish(f.chain([]id.ID{spammer, victim}, 1, 100)); err != nil {
		t.Fatal(err)
	}
	err := repo.Publish(f.chain([]id.ID{spammer, victim}, 2, 110))
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second chain from same accuser: err = %v, want rate limit", err)
	}
	// A different accuser is unaffected.
	if err := repo.Publish(f.chain([]id.ID{other, victim}, 3, 120)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["dht/chains_rate_limited"]; got != 1 {
		t.Errorf("rate-limited counter = %d, want 1", got)
	}
	if n, err := repo.Count(victim); err != nil || n != 2 {
		t.Errorf("Count = %d, %v; want 2", n, err)
	}
}

func TestRepoPerKeyRateLimit(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(43, 44))
	f, ids := newRepoFixture(t, r, 6)
	repo, reg := f.repo(t, r, RepoLimits{MaxPerKey: 2})
	victim := ids[0]

	for i, accuser := range []id.ID{ids[1], ids[2]} {
		if err := repo.Publish(f.chain([]id.ID{accuser, victim}, uint64(i+1), 100)); err != nil {
			t.Fatal(err)
		}
	}
	err := repo.Publish(f.chain([]id.ID{ids[3], victim}, 9, 130))
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-cap chain: err = %v, want rate limit", err)
	}
	if got := reg.Snapshot().Counters["dht/chains_rate_limited"]; got != 1 {
		t.Errorf("rate-limited counter = %d, want 1", got)
	}
}

func TestRepoRejectsDuplicates(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(45, 46))
	f, ids := newRepoFixture(t, r, 4)
	repo, reg := f.repo(t, r, RepoLimits{})
	chain := f.chain([]id.ID{ids[1], ids[0]}, 7, 100)

	if err := repo.Publish(chain); err != nil {
		t.Fatal(err)
	}
	err := repo.Publish(chain)
	if !errors.Is(err, ErrDuplicateChain) {
		t.Fatalf("replayed chain: err = %v, want duplicate", err)
	}
	if got := reg.Snapshot().Counters["dht/chains_duplicate"]; got != 1 {
		t.Errorf("duplicate counter = %d, want 1", got)
	}
	if n, err := repo.Count(ids[0]); err != nil || n != 1 {
		t.Errorf("Count = %d, %v; want 1", n, err)
	}
}

func TestRepoRejectsStaleChains(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(47, 48))
	f, ids := newRepoFixture(t, r, 4)
	repo, reg := f.repo(t, r, RepoLimits{StaleAfter: time.Minute})
	verdictAt := netsim.Time(100)
	old := f.chain([]id.ID{ids[1], ids[0]}, 3, verdictAt)

	err := repo.PublishAt(old, verdictAt.Add(2*time.Minute))
	if !errors.Is(err, ErrStaleChain) {
		t.Fatalf("aged chain: err = %v, want stale", err)
	}
	if got := reg.Snapshot().Counters["dht/chains_stale"]; got != 1 {
		t.Errorf("stale counter = %d, want 1", got)
	}
	// Within the bound the same chain is fine.
	if err := repo.PublishAt(old, verdictAt.Add(30*time.Second)); err != nil {
		t.Fatal(err)
	}
	// The untimed Publish never applies the staleness bound.
	fresh := f.chain([]id.ID{ids[2], ids[0]}, 4, verdictAt)
	if err := repo.Publish(fresh); err != nil {
		t.Fatal(err)
	}
}

func TestRepoCountByDiscountsCliques(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(49, 50))
	f, ids := newRepoFixture(t, r, 8)
	repo, _ := f.repo(t, r, RepoLimits{})
	victim := ids[0]
	clique := []id.ID{ids[1], ids[2], ids[3]}
	independent := ids[4]

	for i, accuser := range clique {
		if err := repo.Publish(f.chain([]id.ID{accuser, victim}, uint64(i+1), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Publish(f.chain([]id.ID{independent, victim}, 9, 140)); err != nil {
		t.Fatal(err)
	}

	sus := core.NewCliqueSuspector()
	sus.SuspectAll(clique)

	if n, err := repo.Count(victim); err != nil || n != 4 {
		t.Fatalf("Count = %d, %v; want 4", n, err)
	}
	if n, err := repo.CountBy(victim, nil); err != nil || n != 4 {
		t.Fatalf("CountBy(nil) = %d, %v; want 4", n, err)
	}
	if n, err := repo.CountBy(victim, sus.Group); err != nil || n != 2 {
		t.Fatalf("CountBy(clique-discounted) = %d, %v; want 2 (clique + independent)", n, err)
	}
}

func TestRepoMultiLinkChainCoSigners(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(51, 52))
	f, ids := newRepoFixture(t, r, 6)
	repo, _ := f.repo(t, r, RepoLimits{MaxPerAccuserPerKey: 1})
	victim := ids[0]
	a1, a2 := ids[1], ids[2]

	// A co-signed chain a1→a2→victim counts against a2 (the final
	// accuser), not a1.
	if err := repo.Publish(f.chain([]id.ID{a1, a2, victim}, 1, 100)); err != nil {
		t.Fatal(err)
	}
	err := repo.Publish(f.chain([]id.ID{a1, a2, victim}, 2, 110))
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second co-signed chain: err = %v, want rate limit", err)
	}
	// a1 as final accuser is a distinct accounting bucket.
	if err := repo.Publish(f.chain([]id.ID{a1, victim}, 3, 120)); err != nil {
		t.Fatal(err)
	}
}
