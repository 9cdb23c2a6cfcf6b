// Package host implements the multi-project registry: project IDs
// mapped to lazily-loaded durable projects, with per-project locking, a
// byte-budgeted LRU over resident projects, and per-tenant metrics.
//
// The registry is the layer between the durable store (flowsched.Open —
// one WAL-backed directory per project under a common root) and the
// multi-tenant serving layer: a daemon hosts *many* projects in one
// process, loads each on first touch, evicts cold ones under memory
// pressure, and recovers any of them bit-identically after a crash.
//
// # Pinning and eviction
//
// Get returns a pinned Handle: the project cannot be finalized while
// handles are outstanding, so a request that resolved a project keeps a
// consistent view even if the project is evicted mid-request (reads are
// snapshot-isolated on top — see internal/serve). Evict removes the
// project from the registry immediately — new Gets re-load from disk —
// but the checkpoint-and-close happens only when the last pin is
// released, and a re-load waits for that finalize so two processes never
// hold one WAL.
package host

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"flowsched"
	"flowsched/internal/obs"
)

// Options configures a Registry.
type Options struct {
	// Root is the directory holding one durable project directory per
	// project ID.
	Root string
	// MaxResidentBytes is the LRU byte budget over resident projects
	// (estimated via Project.MemoryFootprint). 0 = unlimited.
	MaxResidentBytes int64
	// Project configures every loaded project (calendar, obs, designer
	// override). Designer is only applied to newly created projects.
	Project flowsched.Options
	// Persist configures every project's WAL.
	Persist flowsched.PersistOptions
	// Prepare runs after a project is loaded or created, before it is
	// served — the place to rebind tools (not persisted). Nil binds
	// simulated tools to every activity.
	Prepare func(*flowsched.Project) error
	// Obs attaches registry-level metrics (per-tenant load/evict
	// counters, resident gauges). Nil = uninstrumented.
	Obs *obs.Obs
}

// maxProjectLabels bounds the per-tenant label cardinality: past this
// many distinct projects, per-tenant counters overflow into the
// reserved "other" series (see obs.OverflowValue).
const maxProjectLabels = 64

// entry is one registry slot. refs counts outstanding Handles; wmu is
// the per-project write lock (Handle.Do).
type entry struct {
	id      string
	ready   chan struct{} // closed when load finishes
	loadErr error
	project *flowsched.Project
	bytes   int64
	refs    int
	lastUse uint64
	evicted bool
	grave   chan struct{} // set at eviction, closed when finalized
	wmu     sync.Mutex

	// memoBytes is the risk memo's size at the last estimate of bytes.
	memoBytes atomic.Int64
}

// Registry maps project IDs to resident projects. Safe for concurrent
// use.
type Registry struct {
	opt     Options
	prepare func(*flowsched.Project) error

	mu       sync.Mutex
	projects map[string]*entry
	graves   map[string]chan struct{}
	tick     uint64
	closed   bool

	mLoads   *obs.CounterVec // host_project_loads_total{project}
	mEvicts  *obs.CounterVec // host_project_evictions_total{project}
	gLoaded  *obs.Gauge      // host_resident_projects
	gBytes   *obs.Gauge      // host_resident_bytes
	mRecover *obs.CounterVec // host_project_recoveries_total{project}
	gQuar    *obs.GaugeVec   // host_project_quarantined{project}: 1 = resident and read-only
}

// NewRegistry opens a registry over root. The root directory is created
// if missing; existing project directories are listed lazily, not
// loaded.
func NewRegistry(opt Options) (*Registry, error) {
	if opt.Root == "" {
		return nil, fmt.Errorf("host: empty root")
	}
	if err := os.MkdirAll(opt.Root, 0o755); err != nil {
		return nil, fmt.Errorf("host: root %s: %w", opt.Root, err)
	}
	r := &Registry{
		opt:      opt,
		prepare:  opt.Prepare,
		projects: make(map[string]*entry),
		graves:   make(map[string]chan struct{}),
	}
	if r.prepare == nil {
		r.prepare = func(p *flowsched.Project) error { return p.UseSimulatedTools() }
	}
	if m := opt.Obs.Metrics(); m != nil {
		r.mLoads = m.BoundedCounterVec("host_project_loads_total", maxProjectLabels, "project")
		r.mEvicts = m.BoundedCounterVec("host_project_evictions_total", maxProjectLabels, "project")
		r.mRecover = m.BoundedCounterVec("host_project_recoveries_total", maxProjectLabels, "project")
		r.gLoaded = m.Gauge("host_resident_projects")
		r.gBytes = m.Gauge("host_resident_bytes")
		r.gQuar = m.BoundedGaugeVec("host_project_quarantined", maxProjectLabels, "project")
	}
	return r, nil
}

// ValidID reports whether id is a usable project ID: 1–64 characters
// from [a-zA-Z0-9._-], not starting with a dot (IDs name directories
// under the root).
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > 64 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func (r *Registry) dir(id string) string { return filepath.Join(r.opt.Root, id) }

// exists reports whether a durable project directory for id is on disk.
func (r *Registry) exists(id string) bool {
	_, err := os.Stat(filepath.Join(r.dir(id), "manifest.json"))
	return err == nil
}

// Handle is a pinned reference to a resident project. Release it when
// done; the project stays resident at least until the last release.
type Handle struct {
	e    *entry
	r    *Registry
	once sync.Once
}

// Project returns the pinned project. Reads should go through snapshot
// views (flowsched.ProjectView); mutations through Do.
func (h *Handle) Project() *flowsched.Project { return h.e.project }

// ID returns the project ID.
func (h *Handle) ID() string { return h.e.id }

// Do runs fn under the project's write lock, serializing mutations (and
// checkpoints) against other writers of the same project. It then
// refreshes the project's byte estimate and applies the LRU budget.
func (h *Handle) Do(fn func(*flowsched.Project) error) error {
	h.e.wmu.Lock()
	err := fn(h.e.project)
	h.e.wmu.Unlock()
	h.r.refreshBytes(h.e)
	h.r.refreshHealth(h.e)
	h.r.enforceBudget(h.e)
	return err
}

// Health reports the pinned project's serving state (see
// flowsched.Project.Health) and refreshes the registry's quarantine
// gauge as a side effect.
func (h *Handle) Health() flowsched.Health {
	hl := h.e.project.Health()
	h.r.setQuarGauge(h.e.id, hl.Quarantined)
	return hl
}

// Release unpins the project. Idempotent. If the project's risk memo
// moved since the last estimate (read-only risk analyses grow it), the
// byte estimate is refreshed and the LRU budget applied first. If the
// project was evicted while pinned, the last release checkpoints and
// closes it.
func (h *Handle) Release() {
	h.once.Do(func() {
		if h.e.project.RiskMemoBytes() != h.e.memoBytes.Load() {
			h.r.refreshBytes(h.e)
			h.r.enforceBudget(h.e)
		}
		h.r.mu.Lock()
		h.e.refs--
		fin := h.e.evicted && h.e.refs == 0
		h.r.mu.Unlock()
		if fin {
			h.r.finalize(h.e)
		}
	})
}

// Create initializes a new durable project under the root and returns a
// pinned handle to it. The ID must be unused.
func (r *Registry) Create(id, schemaSrc string) (*Handle, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("host: invalid project id %q", id)
	}
	if r.exists(id) {
		return nil, fmt.Errorf("host: project %q already exists", id)
	}
	return r.acquire(id, schemaSrc)
}

// Get returns a pinned handle to the project, loading it from its WAL
// directory on first touch. Unknown IDs fail.
func (r *Registry) Get(id string) (*Handle, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("host: invalid project id %q", id)
	}
	return r.acquire(id, "")
}

// acquire pins an existing resident entry or becomes the loader for a
// new one. schemaSrc non-empty means create-if-missing (Create path).
func (r *Registry) acquire(id, schemaSrc string) (*Handle, error) {
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return nil, fmt.Errorf("host: registry closed")
		}
		if e, ok := r.projects[id]; ok {
			e.refs++
			r.tick++
			e.lastUse = r.tick
			r.mu.Unlock()
			<-e.ready
			if e.loadErr != nil {
				// The loader removed the entry; drop the pin.
				r.mu.Lock()
				e.refs--
				r.mu.Unlock()
				return nil, e.loadErr
			}
			return &Handle{e: e, r: r}, nil
		}
		if g, ok := r.graves[id]; ok {
			// An evicted instance is still checkpointing; wait so two
			// instances never hold one WAL directory.
			r.mu.Unlock()
			<-g
			continue
		}
		if schemaSrc == "" && !r.exists(id) {
			r.mu.Unlock()
			return nil, fmt.Errorf("host: unknown project %q", id)
		}
		// Become the loader: publish the slot so concurrent Gets wait on
		// ready instead of double-loading.
		e := &entry{id: id, ready: make(chan struct{}), refs: 1}
		r.tick++
		e.lastUse = r.tick
		r.projects[id] = e
		r.mu.Unlock()
		return r.load(e, schemaSrc)
	}
}

// load opens the project's durable directory and publishes the result.
func (r *Registry) load(e *entry, schemaSrc string) (*Handle, error) {
	recovered := r.exists(e.id)
	p, err := flowsched.Open(r.dir(e.id), schemaSrc, r.opt.Project, r.opt.Persist)
	if err == nil && r.prepare != nil {
		if perr := r.prepare(p); perr != nil {
			p.Close()
			err = perr
		}
	}
	r.mu.Lock()
	if err != nil {
		e.loadErr = fmt.Errorf("host: load project %q: %w", e.id, err)
		e.refs = 0
		delete(r.projects, e.id)
		r.mu.Unlock()
		close(e.ready)
		return nil, e.loadErr
	}
	e.project = p
	e.memoBytes.Store(p.RiskMemoBytes())
	e.bytes = p.MemoryFootprint()
	r.mu.Unlock()
	close(e.ready)
	r.mLoads.With(e.id).Inc()
	if recovered {
		r.mRecover.With(e.id).Inc()
	}
	// A freshly opened project went through clean-prefix recovery, so it
	// is healthy by construction.
	r.setQuarGauge(e.id, false)
	r.updateGauges()
	r.enforceBudget(e)
	return &Handle{e: e, r: r}, nil
}

// refreshHealth syncs the quarantine gauge with the project's live
// state; called after every write (writes are what trigger quarantine).
func (r *Registry) refreshHealth(e *entry) {
	if r.gQuar == nil {
		return
	}
	r.setQuarGauge(e.id, e.project.Health().Quarantined)
}

func (r *Registry) setQuarGauge(id string, quarantined bool) {
	if r.gQuar == nil {
		return
	}
	var v int64
	if quarantined {
		v = 1
	}
	r.gQuar.With(id).Set(v)
}

// Reopen evicts the project (flushing and closing its WAL — for a
// quarantined project the close reports the quarantine but still
// releases the log) and loads it fresh from disk, re-running
// clean-prefix recovery. This is the operator path that clears
// quarantine: the recovered instance serves the longest clean record
// prefix and accepts writes again. Blocks until outstanding pins drain.
func (r *Registry) Reopen(id string) (*Handle, error) {
	// The eviction error is deliberately dropped: a quarantined
	// project's final checkpoint is refused by its failed log, which is
	// exactly why it is being reopened.
	_ = r.Evict(id)
	return r.Get(id)
}

// Evict removes the project from the registry: subsequent Gets re-load
// from disk. If no handles are pinned the project is checkpointed and
// closed now; otherwise the last Release does it, and a concurrent
// re-load waits for that. Evicting a non-resident project is a no-op.
func (r *Registry) Evict(id string) error {
	r.mu.Lock()
	e, ok := r.projects[id]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	fin := r.evictLocked(e)
	r.mu.Unlock()
	r.mEvicts.With(id).Inc()
	r.updateGauges()
	if fin {
		return r.finalize(e)
	}
	return nil
}

// evictLocked unlinks e from the live map and digs its grave. Returns
// whether the caller must finalize (no pins outstanding). Caller holds
// r.mu.
func (r *Registry) evictLocked(e *entry) bool {
	delete(r.projects, e.id)
	e.evicted = true
	e.grave = make(chan struct{})
	r.graves[e.id] = e.grave
	return e.refs == 0
}

// finalize checkpoints and closes an evicted project, then clears its
// grave so waiting re-loads proceed.
func (r *Registry) finalize(e *entry) error {
	// Serialize against any in-flight Do: a writer mid-mutation must
	// commit its WAL records before the final checkpoint.
	e.wmu.Lock()
	err := e.project.Close()
	e.wmu.Unlock()
	r.mu.Lock()
	delete(r.graves, e.id)
	r.mu.Unlock()
	close(e.grave)
	// The gauge tracks *resident* quarantined projects; a finalized one
	// is no longer resident (its on-disk marker still shows in List).
	r.setQuarGauge(e.id, false)
	r.updateGauges()
	return err
}

// refreshBytes re-estimates a project's resident size after mutations
// or risk memo growth.
func (r *Registry) refreshBytes(e *entry) {
	e.memoBytes.Store(e.project.RiskMemoBytes())
	b := e.project.MemoryFootprint()
	r.mu.Lock()
	e.bytes = b
	r.mu.Unlock()
	r.updateGauges()
}

// enforceBudget evicts least-recently-used unpinned projects until the
// resident estimate fits MaxResidentBytes. keep is never evicted (the
// project just touched — evicting it would thrash).
func (r *Registry) enforceBudget(keep *entry) {
	if r.opt.MaxResidentBytes <= 0 {
		return
	}
	for {
		r.mu.Lock()
		var total int64
		for _, e := range r.projects {
			total += e.bytes
		}
		if total <= r.opt.MaxResidentBytes {
			r.mu.Unlock()
			return
		}
		var victim *entry
		for _, e := range r.projects {
			if e == keep || e.refs > 0 || e.project == nil {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			r.mu.Unlock()
			return // everything is pinned; nothing to shed
		}
		r.evictLocked(victim)
		r.mu.Unlock()
		r.mEvicts.With(victim.id).Inc()
		r.finalize(victim)
	}
}

func (r *Registry) updateGauges() {
	if r.gLoaded == nil {
		return
	}
	r.mu.Lock()
	n := int64(len(r.projects))
	var bytes int64
	for _, e := range r.projects {
		bytes += e.bytes
	}
	r.mu.Unlock()
	r.gLoaded.Set(n)
	r.gBytes.Set(bytes)
}

// ProjectInfo describes one project, resident or on disk.
type ProjectInfo struct {
	ID       string `json:"id"`
	Resident bool   `json:"resident"`
	Pinned   int    `json:"pinned,omitempty"`
	// Bytes is the resident-size estimate (0 when not resident).
	Bytes int64 `json:"bytes,omitempty"`
	// Quarantined reports read-only quarantine after a WAL failure: the
	// live state for resident projects, the on-disk marker left by a
	// wedged (possibly dead) process for non-resident ones. A host
	// Reopen — or any successful load — clears it.
	Quarantined bool `json:"quarantined,omitempty"`
}

// quarantineMarkerName mirrors the marker flowsched writes beside a
// wedged project's WAL (and removes on successful Open).
const quarantineMarkerName = "quarantined.json"

// quarantinedOnDisk reports whether a project directory carries the
// quarantine marker of a wedged process.
func (r *Registry) quarantinedOnDisk(id string) bool {
	_, err := os.Stat(filepath.Join(r.dir(id), quarantineMarkerName))
	return err == nil
}

// List returns every project under the root — resident or not — sorted
// by ID.
func (r *Registry) List() ([]ProjectInfo, error) {
	ents, err := os.ReadDir(r.opt.Root)
	if err != nil {
		return nil, fmt.Errorf("host: list %s: %w", r.opt.Root, err)
	}
	r.mu.Lock()
	resident := make(map[string]*entry, len(r.projects))
	for id, e := range r.projects {
		resident[id] = e
	}
	r.mu.Unlock()
	seen := make(map[string]bool)
	var out []ProjectInfo
	for _, de := range ents {
		if !de.IsDir() || !ValidID(de.Name()) || !r.exists(de.Name()) {
			continue
		}
		info := ProjectInfo{ID: de.Name()}
		if e, ok := resident[de.Name()]; ok && e.project != nil {
			info.Resident, info.Pinned, info.Bytes = true, e.refs, e.bytes
			info.Quarantined = e.project.Health().Quarantined
		} else {
			info.Quarantined = r.quarantinedOnDisk(de.Name())
		}
		seen[de.Name()] = true
		out = append(out, info)
	}
	// A just-created project whose directory write races the listing.
	for id, e := range resident {
		if !seen[id] && e.project != nil {
			out = append(out, ProjectInfo{
				ID: id, Resident: true, Pinned: e.refs, Bytes: e.bytes,
				Quarantined: e.project.Health().Quarantined,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// ResidentBytes reports the current resident-size estimate.
func (r *Registry) ResidentBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, e := range r.projects {
		total += e.bytes
	}
	return total
}

// Close evicts and finalizes every resident project — the graceful
// drain flushing all WALs. The caller must have released all handles;
// Close finalizes regardless, so call it only after the serving layer
// has drained.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	var list []*entry
	for _, e := range r.projects {
		list = append(list, e)
	}
	for _, e := range list {
		r.evictLocked(e)
	}
	r.mu.Unlock()
	var first error
	for _, e := range list {
		<-e.ready // never finalize a half-loaded project
		if e.loadErr != nil {
			continue
		}
		if err := r.finalize(e); err != nil && first == nil {
			first = err
		}
	}
	return first
}
