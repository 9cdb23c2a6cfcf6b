package design

import (
	"fmt"
	"time"
)

// State is the serialized form of a Store: every version chain, content
// included. Project images embed it directly, so the design data is
// encoded in the same pass as the rest of the image.
type State struct {
	Classes map[string][]ObjectState `json:"classes"`
}

// ObjectState is one object of a State. Content that is valid UTF-8 —
// RTL, scripts, reports — is kept as Text, a JSON string; anything else
// as Bytes, base64 in JSON.
type ObjectState struct {
	Version  int       `json:"version"`
	Sum      uint64    `json:"sum"`
	Created  time.Time `json:"created"`
	Producer string    `json:"producer,omitempty"`
	Text     string    `json:"text,omitempty"`
	Bytes    []byte    `json:"bytes,omitempty"`
}

// Chains returns every class's version chain, clipped so that later
// puts stay invisible: O(classes). Objects are immutable and shared, not
// copied; a caller may read them at leisure while writers proceed.
// Project images are encoded from it, straight from each object's bytes.
func (s *Store) Chains() map[string][]*Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]*Object, len(s.byClass))
	for class, chain := range s.byClass {
		out[class] = chain[:len(chain):len(chain)]
	}
	return out
}

// FromState rebuilds a store from a State, verifying content hashes and
// version density. It rejects a missing State.
func FromState(st *State) (*Store, error) {
	if st == nil {
		return nil, fmt.Errorf("design: state: missing")
	}
	s := NewStore()
	for class, objs := range st.Classes {
		chain := make([]*Object, len(objs))
		for i, oj := range objs {
			if oj.Text != "" {
				oj.Bytes = []byte(oj.Text)
			}
			if oj.Version != i+1 {
				return nil, fmt.Errorf("design: restore: class %q has non-dense versions", class)
			}
			if hashBytes(oj.Bytes) != oj.Sum {
				return nil, fmt.Errorf("design: restore: object %s@%d hash mismatch", class, oj.Version)
			}
			chain[i] = &Object{
				Ref:      Ref{Class: class, Version: oj.Version, Sum: oj.Sum},
				Created:  oj.Created,
				Producer: oj.Producer,
				Bytes:    oj.Bytes,
			}
		}
		s.byClass[class] = chain
	}
	return s, nil
}
