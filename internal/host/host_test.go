package host

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"flowsched"
	"flowsched/internal/obs"
)

// newRegistry builds a registry over a temp root with fsync disabled
// (tests exercise logic, not disk durability).
func newRegistry(t *testing.T, opt Options) *Registry {
	t.Helper()
	if opt.Root == "" {
		opt.Root = t.TempDir()
	}
	opt.Persist.NoSync = true
	r, err := NewRegistry(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// createProject creates project id with the Fig4 schema and a little
// state, then releases it.
func createProject(t *testing.T, r *Registry, id string) uint64 {
	t.Helper()
	h, err := r.Create(id, flowsched.Fig4Schema)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	var version uint64
	err = h.Do(func(p *flowsched.Project) error {
		if _, err := p.Import("stimuli", []byte("pulse "+id)); err != nil {
			return err
		}
		v, err := p.View()
		if err != nil {
			return err
		}
		version = v.Version()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return version
}

func versionOf(t *testing.T, h *Handle) uint64 {
	t.Helper()
	v, err := h.Project().View()
	if err != nil {
		t.Fatal(err)
	}
	return v.Version()
}

func TestCreateGetEvictReload(t *testing.T) {
	r := newRegistry(t, Options{})
	want := createProject(t, r, "alpha")

	// Second create of the same ID must fail; the directory exists.
	if _, err := r.Create("alpha", flowsched.Fig4Schema); err == nil {
		t.Fatal("duplicate create accepted")
	}

	h, err := r.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := versionOf(t, h); got != want {
		t.Fatalf("resident version %d, want %d", got, want)
	}
	h.Release()

	if err := r.Evict("alpha"); err != nil {
		t.Fatal(err)
	}
	// Re-load from disk reproduces the same store version.
	h2, err := r.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if got := versionOf(t, h2); got != want {
		t.Fatalf("re-loaded version %d, want %d", got, want)
	}
}

func TestGetUnknownAndInvalidIDs(t *testing.T) {
	r := newRegistry(t, Options{})
	if _, err := r.Get("nope"); err == nil || !strings.Contains(err.Error(), "unknown project") {
		t.Fatalf("unknown project error = %v", err)
	}
	for _, id := range []string{"", ".hidden", "a/b", "a b", strings.Repeat("x", 65)} {
		if ValidID(id) {
			t.Fatalf("ValidID(%q) = true", id)
		}
		if _, err := r.Get(id); err == nil {
			t.Fatalf("Get(%q) accepted", id)
		}
	}
	if !ValidID("chip-2.rev_B") {
		t.Fatal("ValidID rejected a legal id")
	}
}

// TestPinSurvivesEviction is the registry's core safety property: an
// evicted-but-pinned project keeps serving, its WAL is closed only at
// the last release, and a re-load waits for that close — then serves
// the same store version.
func TestPinSurvivesEviction(t *testing.T) {
	r := newRegistry(t, Options{})
	want := createProject(t, r, "alpha")

	h, err := r.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Evict("alpha"); err != nil {
		t.Fatal(err)
	}
	// The pinned instance still answers reads mid-eviction.
	if got := versionOf(t, h); got != want {
		t.Fatalf("pinned version after evict = %d, want %d", got, want)
	}

	// A concurrent Get must block on the grave until the pin drops —
	// never open the WAL directory twice.
	got := make(chan uint64, 1)
	errc := make(chan error, 1)
	go func() {
		h2, err := r.Get("alpha")
		if err != nil {
			errc <- err
			return
		}
		v, err := h2.Project().View()
		// Release before reporting: the test ends on the report, and the
		// registry's cleanup Close requires every handle released.
		h2.Release()
		if err != nil {
			errc <- err
			return
		}
		got <- v.Version()
	}()
	select {
	case v := <-got:
		t.Fatalf("re-load completed (version %d) while the old instance was pinned", v)
	case err := <-errc:
		t.Fatalf("re-load failed: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	h.Release() // finalizes: checkpoint, close WAL, clear grave
	select {
	case v := <-got:
		if v != want {
			t.Fatalf("re-loaded version %d, want %d", v, want)
		}
	case err := <-errc:
		t.Fatalf("re-load failed: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("re-load never unblocked after release")
	}
}

// TestLRUEvictionUnderByteBudget: with a budget that fits roughly one
// project, loading several keeps residency bounded and the evicted
// ones remain recoverable.
func TestLRUEvictionUnderByteBudget(t *testing.T) {
	root := t.TempDir()
	seed := newRegistry(t, Options{Root: root})
	versions := map[string]uint64{}
	for _, id := range []string{"p0", "p1", "p2", "p3"} {
		versions[id] = createProject(t, seed, id)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	// Size the budget to ~1.5 projects so the LRU must shed some.
	probe, err := flowsched.Open(root+"/p0", "", flowsched.Options{}, flowsched.PersistOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.MemoryFootprint() + probe.MemoryFootprint()/2
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}

	r := newRegistry(t, Options{Root: root, MaxResidentBytes: budget})
	for _, id := range []string{"p0", "p1", "p2", "p3"} {
		h, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	resident := 0
	for _, info := range list {
		if info.Resident {
			resident++
		}
	}
	if resident == 0 || resident >= 4 {
		t.Fatalf("resident projects = %d, want LRU to keep a strict subset", resident)
	}
	if r.ResidentBytes() > budget {
		t.Fatalf("resident bytes %d exceed budget %d", r.ResidentBytes(), budget)
	}
	// Every project — evicted or not — still serves its version.
	for id, want := range versions {
		h, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := versionOf(t, h); got != want {
			t.Fatalf("%s: version %d, want %d", id, got, want)
		}
		h.Release()
	}
}

// TestReadOnlyRiskGrowthEnforcesBudget: trial streams a read-only risk
// analysis leaves in a project's memo count against the byte budget at
// the handle's release, so an unpinned tenant is evicted with no write
// to the one that grew.
func TestReadOnlyRiskGrowthEnforcesBudget(t *testing.T) {
	root := t.TempDir()
	seed := newRegistry(t, Options{Root: root})
	want := createProject(t, seed, "alpha")
	createProject(t, seed, "beta")
	budget := seed.ResidentBytes() + 1024 // both fit, with a kilobyte to spare
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	r := newRegistry(t, Options{Root: root, MaxResidentBytes: budget})
	for _, id := range []string{"beta", "alpha"} {
		h, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if r.ResidentBytes() != budget-1024 {
		t.Fatalf("reloaded footprint %d, want %d", r.ResidentBytes(), budget-1024)
	}

	h, err := r.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Project().SimulateRiskWith([]string{"performance"}, flowsched.RiskOptions{Trials: 5000, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if got := versionOf(t, h); got != want {
		t.Fatalf("risk analysis moved alpha to version %d, want %d", got, want)
	}
	h.Release()

	resident := map[string]bool{}
	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range list {
		resident[info.ID] = info.Resident
	}
	if !resident["alpha"] || resident["beta"] {
		t.Fatalf("resident = %v, want alpha kept and beta evicted once alpha's memo outgrew the budget", resident)
	}
}

func TestListUnionsDiskAndResident(t *testing.T) {
	r := newRegistry(t, Options{})
	createProject(t, r, "alpha")
	createProject(t, r, "beta")
	if err := r.Evict("beta"); err != nil {
		t.Fatal(err)
	}
	h, err := r.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()

	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != "alpha" || list[1].ID != "beta" {
		t.Fatalf("list = %+v", list)
	}
	if !list[0].Resident || list[0].Pinned != 1 {
		t.Fatalf("alpha should be resident and pinned: %+v", list[0])
	}
	if list[1].Resident {
		t.Fatalf("beta should be evicted: %+v", list[1])
	}
}

func TestPerTenantMetrics(t *testing.T) {
	o := obs.New()
	r := newRegistry(t, Options{Obs: o})
	createProject(t, r, "alpha")
	if err := r.Evict("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("alpha"); err != nil {
		t.Fatal(err)
	}
	if got := r.mLoads.With("alpha").Value(); got != 2 {
		t.Fatalf("host_project_loads_total{alpha} = %d, want 2", got)
	}
	if got := r.mEvicts.With("alpha").Value(); got != 1 {
		t.Fatalf("host_project_evictions_total{alpha} = %d, want 1", got)
	}
	if got := r.mRecover.With("alpha").Value(); got != 1 {
		t.Fatalf("host_project_recoveries_total{alpha} = %d, want 1", got)
	}
	if r.gLoaded.Value() != 1 {
		t.Fatalf("host_resident_projects = %d", r.gLoaded.Value())
	}
	if errs := o.Metrics().Lint(); len(errs) != 0 {
		t.Fatalf("metric lint: %v", errs)
	}
}

// TestMetricCardinalityBounded: more projects than the label budget
// must overflow into "other", never grow unbounded series.
func TestMetricCardinalityBounded(t *testing.T) {
	o := obs.New()
	r := newRegistry(t, Options{Obs: o})
	// Drive the counter directly — creating 70 real projects is slow.
	for i := 0; i < maxProjectLabels+10; i++ {
		r.mLoads.With(fmt.Sprintf("p%03d", i)).Inc()
	}
	if n := r.mLoads.Len(); n > maxProjectLabels {
		t.Fatalf("series count %d exceeds bound %d", n, maxProjectLabels)
	}
	over, dropped := r.mLoads.Overflowed()
	if !over || dropped == 0 {
		t.Fatal("expected overflow into the reserved series")
	}
}

// TestConcurrentGetEvict hammers pin/evict/re-load under the race
// detector: no double-open, no lost finalize, every handle usable.
func TestConcurrentGetEvict(t *testing.T) {
	r := newRegistry(t, Options{})
	want := createProject(t, r, "alpha")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				h, err := r.Get("alpha")
				if err != nil {
					t.Error(err)
					return
				}
				if got := versionOf(t, h); got != want {
					t.Errorf("version %d, want %d", got, want)
				}
				h.Release()
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := r.Evict("alpha"); err != nil {
					t.Errorf("evict: %v", err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestCloseFlushesAll: Close drains every resident WAL; a fresh
// registry over the same root recovers every project from checkpoints.
func TestCloseFlushesAll(t *testing.T) {
	root := t.TempDir()
	r := newRegistry(t, Options{Root: root})
	versions := map[string]uint64{}
	for _, id := range []string{"a", "b", "c"} {
		versions[id] = createProject(t, r, id)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("a"); err == nil {
		t.Fatal("Get succeeded on a closed registry")
	}
	r2 := newRegistry(t, Options{Root: root})
	for id, want := range versions {
		h, err := r2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := versionOf(t, h); got != want {
			t.Fatalf("%s recovered at version %d, want %d", id, got, want)
		}
		h.Release()
	}
}

// TestHandleReleaseIdempotent: double release must not corrupt the
// refcount (a later evict would otherwise finalize while pinned).
func TestHandleReleaseIdempotent(t *testing.T) {
	r := newRegistry(t, Options{})
	createProject(t, r, "alpha")
	h, err := r.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h.Release()
	h2, err := r.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	refs := h2.e.refs
	r.mu.Unlock()
	if refs != 1 {
		t.Fatalf("refs = %d after double release + one pin, want 1", refs)
	}
	h2.Release()
}
