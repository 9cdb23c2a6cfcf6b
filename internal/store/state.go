package store

import (
	"fmt"
	"strconv"
	"strings"
)

// State is the serialized form of a database — the only one: WAL
// checkpoints and saved sessions both carry it. It holds the exact
// mutation counter and per-container watermarks, so a database restored
// with FromState is bit-identical to the original: same Version(), same
// Watermark() per container, same entry bytes. That identity is what lets
// snapshot fingerprints and `X-Flowsched-Version` headers survive a
// crash-recovery cycle or a save/load round trip.
type State struct {
	// Version is the database mutation counter at checkpoint time.
	Version uint64 `json:"version"`
	// Containers holds every container in creation order.
	Containers []ContainerState `json:"containers"`
}

// ContainerState is one container's checkpoint form.
type ContainerState struct {
	Name      string   `json:"name"`
	Space     Space    `json:"space"`
	Class     string   `json:"class"`
	Watermark uint64   `json:"watermark"`
	Entries   []*Entry `json:"entries"`
}

// FromState reconstructs a database from a State, restoring the
// mutation counter and per-container watermarks exactly. It rejects a
// missing state and validates dense versions, canonical IDs, watermarks
// within the version, and referential integrity of deps and links.
func FromState(s *State) (*DB, error) {
	if s == nil {
		return nil, fmt.Errorf("store: state: missing")
	}
	db := NewDB()
	db.version = s.Version
	for i := range s.Containers {
		cs := &s.Containers[i]
		if _, dup := db.containers[cs.Name]; dup {
			return nil, fmt.Errorf("store: state: duplicate container %q", cs.Name)
		}
		if cs.Watermark > s.Version {
			return nil, fmt.Errorf("store: state: container %q watermark %d exceeds version %d",
				cs.Name, cs.Watermark, s.Version)
		}
		c := &Container{
			Name:      cs.Name,
			Space:     cs.Space,
			Class:     cs.Class,
			watermark: cs.Watermark,
		}
		for j, e := range cs.Entries {
			if e == nil {
				return nil, fmt.Errorf("store: state: container %q has nil entry", cs.Name)
			}
			if e.Version != j+1 {
				return nil, fmt.Errorf("store: state: container %q has non-dense versions", cs.Name)
			}
			if !isEntryID(e.ID, cs.Name, e.Version) {
				return nil, fmt.Errorf("store: state: entry id %q, want %q", e.ID, cs.Name+"/"+strconv.Itoa(e.Version))
			}
		}
		if n := len(cs.Entries); n > 0 {
			c.setEntries(cs.Entries)
			// Give the latest entry an empty decoded cell for its first
			// Decode to fill. The state's entries may belong to a live
			// database, so the entry is cloned (with its bytes, which a
			// lazy entry produces now).
			latest := *cs.Entries[n-1]
			latest.payload, latest.value = latest.Payload(), new(decoded)
			c.replaceLocked(n-1, &latest)
		}
		db.containers[cs.Name] = c
		db.order = append(db.order, cs.Name)
	}
	for _, n := range db.order {
		c := db.containers[n]
		for i := 0; i < c.n; i++ {
			e := c.At(i)
			for _, refs := range [2][]string{e.Deps, e.Links} {
				for _, d := range refs {
					if db.lookupLocked(d) == nil {
						return nil, fmt.Errorf("store: state: entry %s references missing %q", e.ID, d)
					}
				}
			}
		}
	}
	return db, nil
}

// isEntryID reports whether id is "container/version", without
// building that string.
func isEntryID(id, container string, version int) bool {
	var buf [20]byte
	rest, ok := strings.CutPrefix(id, container)
	return ok && len(rest) > 1 && rest[0] == '/' && rest[1:] == string(strconv.AppendInt(buf[:0], int64(version), 10))
}
