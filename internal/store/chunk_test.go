package store

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// chunkDB returns a database with one container "c" of n entries, each
// payload {"seq": i}.
func chunkDB(t testing.TB, n int) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.CreateContainer("c", ExecutionSpace, "x"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.Put("c", t0, map[string]int{"seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// entryIDAt is the ID of entry i of container "c".
func entryIDAt(i int) string { return entryID("c", i+1) }

// bytesPerRun returns the bytes f allocates per call, averaged over runs
// calls after one warm-up call. setup runs before each call, outside the
// count.
func bytesPerRun(runs int, setup func(), f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	setup()
	f()
	var total uint64
	var m runtime.MemStats
	for i := 0; i < runs; i++ {
		setup()
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		f()
		runtime.ReadMemStats(&m)
		total += m.TotalAlloc - before
	}
	return float64(total) / float64(runs)
}

// TestChunkWriteCostIndependentOfEntryCount pins that a fork's first
// append plus one replacement, and the same writes on the live database
// after a Snapshot, copy one chunk and the chunk index rather than the
// container: on 10,000 entries they allocate within a constant of what
// they allocate on 100. A flat copy of 10,000 entry pointers alone would
// be 80 KB; the allowance is one 64-entry chunk (512 B) more than the
// small case needs plus the larger index (157 slots of 32 B).
func TestChunkWriteCostIndependentOfEntryCount(t *testing.T) {
	const allowance = 8 << 10
	cases := []struct {
		name string
		// prepare returns the database the writes go to; it runs
		// outside the count.
		prepare func(db *DB) *DB
	}{
		{"fork", func(db *DB) *DB { return db.ForkAt(db.Snapshot()) }},
		{"snapshot", func(db *DB) *DB { db.Snapshot(); return db }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cost := func(n int) float64 {
				db := chunkDB(t, n)
				var w *DB
				// The replaced entry sits in the middle of the container:
				// in a non-last chunk for 10,000 entries.
				mid := entryIDAt(n / 2)
				return bytesPerRun(20, func() { w = tc.prepare(db) }, func() {
					if _, err := w.Put("c", t0, nil); err != nil {
						t.Fatal(err)
					}
					if err := w.SetPayload(mid, nil); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := cost(100), cost(10000)
			t.Logf("append + replace: %.0f B on 100 entries, %.0f B on 10,000", small, large)
			if large > small+allowance {
				t.Fatalf("append + replace: %.0f B on 10,000 entries vs %.0f B on 100, want within %d B", large, small, allowance)
			}
		})
	}
}

// TestChunkEdgesCopyOnWrite checks views and forks at every chunk edge:
// entries 63, 64 and 65 of a container, one inside a non-last chunk, the
// last, and an append that opens a chunk or fills one.
func TestChunkEdgesCopyOnWrite(t *testing.T) {
	for _, n := range []int{1, 2, 3, 63, 64, 65, 128, 129, 200} {
		t.Run(fmt.Sprintf("entries=%d", n), func(t *testing.T) {
			db := chunkDB(t, n)
			v := db.Snapshot()
			want := v.Container("c").Entries()
			fork := db.ForkAt(v)
			for _, w := range []*DB{db, fork} {
				for _, i := range []int{0, 62, 63, 64, 65, n / 2, n - 1} {
					if i >= 0 && i < n {
						if err := w.SetPayload(entryIDAt(i), map[string]int{"seq": -i}); err != nil {
							t.Fatal(err)
						}
					}
				}
				for k := 0; k < 70; k++ {
					if _, err := w.Put("c", t0, map[string]int{"seq": n + k}); err != nil {
						t.Fatal(err)
					}
				}
			}
			// The view is unchanged.
			checkEntries(t, "view", v.Container("c"), want)
			// Live and fork each see their own writes, and only those.
			for name, w := range map[string]*DB{"live": db, "fork": fork} {
				c := w.Container("c")
				if c.Len() != n+70 {
					t.Fatalf("%s: %d entries, want %d", name, c.Len(), n+70)
				}
				for i := 0; i < c.Len(); i++ {
					e := c.At(i)
					if e.Version != i+1 {
						t.Fatalf("%s: entry %d is version %d", name, i, e.Version)
					}
					var p map[string]int
					if err := e.Decode(&p); err != nil {
						t.Fatal(err)
					}
					wantSeq := i
					if i < n && (i == 0 || i == 62 || i == 63 || i == 64 || i == 65 || i == n/2 || i == n-1) {
						wantSeq = -i
					}
					if p["seq"] != wantSeq {
						t.Fatalf("%s: entry %d seq = %d, want %d", name, i, p["seq"], wantSeq)
					}
					if i < n && e == want[i] && wantSeq != i {
						t.Fatalf("%s: entry %d was not replaced", name, i)
					}
				}
				// The two sides never share a written entry.
				if i := n; db.Container("c").At(i) == fork.Container("c").At(i) {
					t.Fatalf("live and fork share appended entry %d", i)
				}
			}
			// A second fork of the same view starts from the view.
			checkEntries(t, "second fork", db.ForkAt(v).Container("c"), want)
		})
	}
}

// checkEntries fails unless c holds exactly the entries want.
func checkEntries(t *testing.T, what string, c *Container, want []*Entry) {
	t.Helper()
	if c.Len() != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, c.Len(), len(want))
	}
	for i, e := range want {
		if c.At(i) != e {
			t.Fatalf("%s: entry %d changed", what, i)
		}
	}
	if c.Latest() != want[len(want)-1] {
		t.Fatalf("%s: Latest is not the last entry", what)
	}
}

// TestChunkHammerViewsForksAndWriter runs readers that hold views and
// walk every entry while one writer appends and replaces entries at
// chunk edges and forks of the held views write. Each view must keep
// showing exactly the entries it was taken with, and each fork exactly
// its own writes on top of them. Run it under -race.
func TestChunkHammerViewsForksAndWriter(t *testing.T) {
	db := chunkDB(t, 60)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		defer close(stop)
		for round := 0; round < 150; round++ {
			if _, err := db.Put("c", t0, map[string]int{"seq": round}); err != nil {
				t.Error(err)
				return
			}
			n := db.Snapshot().Container("c").Len()
			for _, i := range []int{62, 63, 64, 65, n / 3, n - 1} {
				if i < n {
					if err := db.SetPayload(entryIDAt(i), map[string]int{"round": round}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() { // a reader that holds views and forks them
			defer wg.Done()
			type held struct {
				v    *View
				want []*Entry
			}
			var views []held
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := db.Snapshot()
				views = append(views, held{v, v.Container("c").Entries()})
				if len(views) > 8 {
					views = views[1:]
				}
				for _, h := range views {
					c := h.v.Container("c")
					if c.Len() != len(h.want) {
						t.Errorf("view holds %d entries, took %d", c.Len(), len(h.want))
						return
					}
					for i := 0; i < c.Len(); i++ {
						if e := c.At(i); e != h.want[i] || e.Version != i+1 {
							t.Errorf("view entry %d changed", i)
							return
						}
					}
				}
				h := views[len(views)/2]
				fork := db.ForkAt(h.v)
				n := len(h.want)
				mine, err := fork.Put("c", t0, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for _, i := range []int{63, 64, n / 2, n - 1} {
					if i < n {
						if err := fork.SetPayload(entryIDAt(i), nil); err != nil {
							t.Error(err)
							return
						}
					}
				}
				fc := fork.Container("c")
				if fc.Len() != n+1 || fc.Latest() != mine {
					t.Errorf("fork holds %d entries, want %d ending in its own", fc.Len(), n+1)
					return
				}
				for i := 0; i < n; i++ {
					changed := i == 63 || i == 64 || i == n/2 || i == n-1
					if (fc.At(i) != h.want[i]) != changed {
						t.Errorf("fork entry %d: replaced = %v, want %v", i, fc.At(i) != h.want[i], changed)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestContainerJSONForm pins a container's JSON form: name, space, class
// and the entries in version order, as when Entries was a field.
func TestContainerJSONForm(t *testing.T) {
	type flat struct {
		Name    string   `json:"name"`
		Space   Space    `json:"space"`
		Class   string   `json:"class"`
		Entries []*Entry `json:"entries"`
	}
	for _, n := range []int{0, 1, 64, 130} {
		c := chunkDB(t, n).Snapshot().Container("c")
		got, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(flat{c.Name, c.Space, c.Class, c.Entries()})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%d entries: JSON %s, want %s", n, got, want)
		}
		var back Container
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(got) {
			t.Fatalf("%d entries: round trip %s, want %s", n, again, got)
		}
	}
}

// TestSnapshotSharesUnchangedContainers: a view taken after a write
// shares the previous view's copy of every container the write did not
// touch, and makes a new copy of the one it did, which alone sees the
// write.
func TestSnapshotSharesUnchangedContainers(t *testing.T) {
	db := chunkDB(t, 70)
	if _, err := db.CreateContainer("d", ExecutionSpace, "y"); err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "d", t0, nil)
	v1 := db.Snapshot()
	if err := db.SetPayload(entryIDAt(65), map[string]int{"seq": -1}); err != nil {
		t.Fatal(err)
	}
	v2 := db.Snapshot()
	if v2.Container("d") != v1.Container("d") {
		t.Fatal("an untouched container was copied again")
	}
	if v2.Container("c") == v1.Container("c") {
		t.Fatal("a written container was shared with the older view")
	}
	if v1.Get(entryIDAt(65)) == v2.Get(entryIDAt(65)) {
		t.Fatal("the older view sees the replacement")
	}
	// A write to the shared container after both views stays invisible
	// to both, and a fork of the newer view owns none of its chunks.
	mustPut(t, db, "d", t0, nil)
	if v1.Container("d").Len() != 1 || v2.Container("d").Len() != 1 {
		t.Fatal("a later append shows in a view")
	}
	f := db.ForkAt(v2)
	if err := f.SetPayload("d/1", map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if v1.Get("d/1") != v2.Get("d/1") || db.Get("d/1") != v2.Get("d/1") {
		t.Fatal("a fork's replacement reached its parent or a view")
	}
}
