package store

import (
	"fmt"
	"sort"
	"strings"
)

// Reader is the read-only surface shared by the live *DB and an immutable
// *View. Packages that only query the task database (schedule/execution
// space reads, the query engine, reports) accept a Reader so they can be
// bound either to the live database or to a consistent snapshot of it.
type Reader interface {
	// Container returns the named container, or nil.
	Container(name string) *Container
	// Containers returns all containers in creation order.
	Containers() []*Container
	// ContainersIn returns the containers of one space, in creation order.
	ContainersIn(space Space) []*Container
	// Get returns the entry with the given ID, or nil.
	Get(id string) *Entry
	// Linked reports whether entries a and b are linked.
	Linked(a, b string) bool
}

var (
	_ Reader = (*DB)(nil)
	_ Reader = (*View)(nil)
)

// View is an immutable, point-in-time snapshot of a DB. It shares entry
// chunks with the database it was taken from (each chunk index clipped to
// its length at snapshot time), so taking one is O(containers) regardless
// of how many instances the database holds. Views need no locking: every
// entry and every slot they can reach is frozen.
type View struct {
	version    uint64
	containers map[string]*Container
	order      []string
}

// Snapshot returns an immutable View of the database's current state.
//
// The view's containers share the live chunks through a clipped copy of
// each chunk index and keep their entry count, so later appends to the
// live database — even ones that land in a chunk the view holds — are
// invisible to the view. Each live container's epoch is bumped, which
// makes the next in-place replacement copy the chunk (and the index) it
// touches first (copy-on-write); appends never copy.
//
// Every mutation advances the version, so until one does, Snapshot
// returns the View it returned last: under the read lock, without
// allocating. A new View shares the last one's copy of every container
// no mutation has touched since, so it allocates only for the
// containers that changed.
func (db *DB) Snapshot() *View {
	db.mu.RLock()
	if v := db.last; v != nil && v.version == db.version {
		db.mSnaps.Inc()
		db.mu.RUnlock()
		return v
	}
	db.mu.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.mSnaps.Inc()
	if v := db.last; v != nil && v.version == db.version {
		return v // another reader took it while this one waited
	}
	prev := db.last
	v := &View{
		version:    db.version,
		containers: make(map[string]*Container, len(db.order)),
	}
	if prev != nil && len(prev.order) == len(db.order) {
		v.order = prev.order // creation order only grows
	} else {
		v.order = append([]string(nil), db.order...)
	}
	for _, n := range db.order {
		c := db.containers[n]
		// A container no write touched since the last view is the same
		// in this one: share its view copy, which is immutable.
		if pc := prev.container(n); pc != nil && pc.watermark == c.watermark {
			v.containers[n] = pc
			continue
		}
		v.containers[n] = c.share()
	}
	db.last = v
	return v
}

// ForkAt branches a new child database off the given view in O(containers).
// A nil view forks the database's current state. The child starts with the
// view's chunks shared (copy-on-write): its first append to a container
// copies the last chunk it inherited, its first replacement in a chunk
// copies that chunk, and nothing else is copied. Appends on either side
// are invisible to the other because the fork keeps the view's entry
// count. Parent and child are fully independent afterwards — writes never
// cross over in either direction. The child never retires the decoded
// value of an entry it inherited (see Entry.Decode): that entry is still
// the parent's, and its views'.
//
// The child is uninstrumented; call Instrument to attach its own metrics.
func (db *DB) ForkAt(v *View) *DB {
	if v == nil {
		v = db.Snapshot()
	}
	child := &DB{
		containers: make(map[string]*Container, len(v.order)),
		order:      append([]string(nil), v.order...),
		version:    v.version,
	}
	for n, vc := range v.containers {
		cc := *vc // shares the clipped chunk index
		// Above every epoch a shared chunk carries: the child owns none.
		cc.epoch++
		cc.inherited = cc.n
		child.containers[n] = &cc
	}
	db.mu.RLock()
	f := db.mForks
	db.mu.RUnlock()
	f.Inc()
	return child
}

// container returns the named container of a possibly nil view.
func (v *View) container(name string) *Container {
	if v == nil {
		return nil
	}
	return v.containers[name]
}

// Version returns the source database's mutation counter at snapshot time.
func (v *View) Version() uint64 { return v.version }

// Container returns the named container, or nil.
func (v *View) Container(name string) *Container { return v.containers[name] }

// Containers returns all containers in creation order.
func (v *View) Containers() []*Container {
	out := make([]*Container, 0, len(v.order))
	for _, n := range v.order {
		out = append(out, v.containers[n])
	}
	return out
}

// ContainersIn returns the containers of one space, in creation order.
func (v *View) ContainersIn(space Space) []*Container {
	var out []*Container
	for _, c := range v.Containers() {
		if c.Space == space {
			out = append(out, c)
		}
	}
	return out
}

// Get returns the entry with the given ID, or nil.
func (v *View) Get(id string) *Entry {
	name, ver, err := ParseID(id)
	if err != nil {
		return nil
	}
	c := v.containers[name]
	if c == nil || ver > c.n {
		return nil
	}
	return c.At(ver - 1)
}

// Linked reports whether entries a and b are linked.
func (v *View) Linked(a, b string) bool {
	ea := v.Get(a)
	if ea == nil {
		return false
	}
	for _, l := range ea.Links {
		if l == b {
			return true
		}
	}
	return false
}

// Stats summarizes the view: containers and instances per space.
func (v *View) Stats() map[Space]struct{ Containers, Instances int } {
	out := make(map[Space]struct{ Containers, Instances int })
	for _, c := range v.containers {
		s := out[c.Space]
		s.Containers++
		s.Instances += c.n
		out[c.Space] = s
	}
	return out
}

// Dump renders the view as text, one container per line with its
// instances — the form used to reproduce the paper's Figs. 5–7.
func (v *View) Dump() string {
	var b strings.Builder
	for _, space := range []Space{ExecutionSpace, ScheduleSpace} {
		cs := v.ContainersIn(space)
		if len(cs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s space:\n", space)
		for _, c := range cs {
			ids := make([]string, 0, c.n)
			for i := 0; i < c.n; i++ {
				e := c.At(i)
				label := e.ID
				if len(e.Links) > 0 {
					linked := append([]string(nil), e.Links...)
					sort.Strings(linked)
					label += "->{" + strings.Join(linked, ",") + "}"
				}
				ids = append(ids, label)
			}
			fmt.Fprintf(&b, "  %-24s [%s]\n", c.Name, strings.Join(ids, " "))
		}
	}
	return b.String()
}
