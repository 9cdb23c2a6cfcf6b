package flowsched

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"

	"flowsched/internal/design"
	"flowsched/internal/engine"
	"flowsched/internal/store"
)

// The project image is the one persisted form of a project: the WAL
// checkpoint payload and, with the schema and designer at its front,
// the saved session (Snapshot/Load). It holds the full-fidelity store
// state (exact version counter and watermarks — see store.State), the
// design data, the virtual clock, and the event stream; restoring it
// is bit-identical to replaying the records it covers. Checkpoints
// leave out the schema and designer, which a durable project's
// manifest pins.
//
// Version 2 ("v":2) drops what the structure implies:
//
//	{"v":2,"schema":"…","designer":"…","now":"RFC 3339",
//	 "store":{"version":N,"containers":[{"name":"…","space":"…","class":"…","watermark":N,
//	   "entries":[{"created":T,"deps":["…"],"links":["…"],"payload":…}]}]},
//	 "data":{"classes":{"class":[{"version":N,"sum":N,"created":"RFC 3339","producer":"…","text":"…"}]}},
//	 "events":[["kind","activity",T,"detail"]]}
//
// An entry's ID, container and version follow from its container and
// position; T is a time as appendTime writes it, and events are the
// WAL's positional arrays. Members that are empty or zero are left out
// (schema, designer, deps, links, payload, producer, text, bytes,
// events). Design content that is not UTF-8 is "bytes", base64,
// instead of "text". Payloads are copied verbatim both ways. Older
// images also name the tracked plan in "planVersion" (checkPlanVersion).
//
// Version-1 images (no "v") still decode: their entries carry "id" and
// "version", which restore checks, and their events are objects with
// the engine.Event field names.
const imageVersion = 2

// encodeImage encodes the project's image, with the schema and designer
// when they are not empty (a session).
func (p *Project) encodeImage(schemaSrc, designer string) ([]byte, error) {
	// The store is read through a view and the events through the log's
	// own array, both shared rather than copied.
	v, data, evs := p.mgr.DB.Snapshot(), p.mgr.Data.Chains(), p.mgr.SharedEvents()
	containers := v.Containers()
	// Reserve about what the image takes, so the multi-megabyte buffer
	// is not regrown (and copied) a few dozen times on the way.
	n := 512 + 96*len(evs)
	for _, c := range containers {
		for j := 0; j < c.Len(); j++ {
			e := c.At(j)
			n += 32 + len(e.Payload()) + 24*(len(e.Deps)+len(e.Links))
		}
	}
	for _, objs := range data {
		for _, o := range objs {
			n += 160 + len(o.Bytes)*4/3
		}
	}
	b := strconv.AppendInt(append(make([]byte, 0, n), `{"v":`...), imageVersion, 10)
	if schemaSrc != "" {
		b = appendString(append(b, `,"schema":`...), schemaSrc)
	}
	if designer != "" {
		b = appendString(append(b, `,"designer":`...), designer)
	}
	b, err := appendRFC3339(append(b, `,"now":`...), p.Now())
	if err != nil {
		return nil, err
	}
	b = strconv.AppendUint(append(b, `,"store":{"version":`...), v.Version(), 10)
	b = append(b, `,"containers":[`...)
	for i, c := range containers {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(append(b, `{"name":`...), c.Name)
		b = appendString(append(b, `,"space":`...), string(c.Space))
		b = appendString(append(b, `,"class":`...), c.Class)
		b = strconv.AppendUint(append(b, `,"watermark":`...), c.Watermark(), 10)
		b = append(b, `,"entries":[`...)
		for j := 0; j < c.Len(); j++ {
			e := c.At(j)
			if j > 0 {
				b = append(b, ',')
			}
			if b, err = appendTime(append(b, `{"created":`...), e.Created); err != nil {
				return nil, err
			}
			if len(e.Deps) > 0 {
				b = appendStrings(append(b, `,"deps":`...), e.Deps)
			}
			if len(e.Links) > 0 {
				b = appendStrings(append(b, `,"links":`...), e.Links)
			}
			if raw := e.Payload(); len(raw) > 0 {
				b = append(append(b, `,"payload":`...), raw...)
			}
			b = append(b, '}')
		}
		b = append(b, "]}"...)
	}
	b = append(b, `]},"data":{"classes":{`...)
	classes := make([]string, 0, len(data))
	for class := range data {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for i, class := range classes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendString(b, class), ":["...)
		for j, o := range data[class] {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"version":`...), int64(o.Ref.Version), 10)
			b = strconv.AppendUint(append(b, `,"sum":`...), o.Ref.Sum, 10)
			if b, err = appendRFC3339(append(b, `,"created":`...), o.Created); err != nil {
				return nil, err
			}
			if o.Producer != "" {
				b = appendString(append(b, `,"producer":`...), o.Producer)
			}
			switch {
			case len(o.Bytes) == 0:
			case utf8.Valid(o.Bytes):
				b = appendString(append(b, `,"text":`...), o.Bytes)
			default:
				b = append(base64.StdEncoding.AppendEncode(append(b, `,"bytes":"`...), o.Bytes), '"')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, "}}"...)
	if len(evs) > 0 {
		b = append(b, `,"events":[`...)
		for i := range evs {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendEvent(b, &evs[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// projectState is persisted state decoded into live structures: what an
// image decodes to, and what WAL replay advances. schemaSrc and
// designer are set only from a session.
type projectState struct {
	schemaSrc, designer string
	now                 time.Time
	db                  *store.DB
	data                *design.Store
	events              []engine.Event
}

// decodeImage decodes an image and rebuilds its store and design data.
// validate checks each payload with json.Valid: a session carries no
// CRC, while a checkpoint's CRC already guards its bytes.
func decodeImage(b []byte, validate bool) (*projectState, error) {
	r := &jsonReader{b: b, validate: validate}
	st := &projectState{}
	var (
		v, planVersion int
		state          *store.State // nil is FromState's "missing" error
		data           *design.State
		legacy         bool
	)
	r.object(func(key []byte) {
		switch string(key) {
		case "v":
			v = r.int()
		case "schema":
			st.schemaSrc = r.str()
		case "designer":
			st.designer = r.str()
		case "now":
			st.now = r.time()
		case "store":
			state = decodeStore(r)
		case "data":
			data = decodeDesign(r)
		case "planVersion":
			planVersion = r.int()
		case "events":
			r.array(func(int) {
				if len(st.events) == cap(st.events) {
					// Double: append grows a long slice by a quarter
					// at a time, copying it over and over.
					st.events = slices.Grow(st.events, len(st.events)+64)
				}
				st.events = append(st.events, decodeImageEvent(r))
			})
		case "db":
			legacy = true
			r.skip()
		default:
			r.skip()
		}
	})
	r.end()
	switch {
	case r.err != nil:
		return nil, r.err
	case v != 0 && v != imageVersion:
		return nil, fmt.Errorf("image version %d is not supported", v)
	case state == nil && legacy:
		return nil, fmt.Errorf(`session uses the retired "db" snapshot format (no exact store version, no events); only the checkpoint-image format with a "store" key is supported`)
	}
	var err error
	if st.db, err = store.FromState(state); err != nil {
		return nil, err
	}
	if st.data, err = design.FromState(data); err != nil {
		return nil, err
	}
	if planVersion != 0 {
		if err := checkPlanVersion(st.db, planVersion); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func decodeStore(r *jsonReader) *store.State {
	if r.null() {
		return nil
	}
	s := &store.State{}
	r.object(func(key []byte) {
		switch string(key) {
		case "version":
			s.Version = r.uint64()
		case "containers":
			r.array(func(int) { s.Containers = append(s.Containers, decodeContainer(r)) })
		default:
			r.skip()
		}
	})
	return s
}

func decodeContainer(r *jsonReader) store.ContainerState {
	var c store.ContainerState
	r.object(func(key []byte) {
		switch string(key) {
		case "name":
			c.Name = r.str()
		case "space":
			c.Space = store.Space(r.str())
		case "class":
			c.Class = r.str()
		case "watermark":
			c.Watermark = r.uint64()
		case "entries":
			r.array(func(int) { c.Entries = append(c.Entries, decodeEntry(r)) })
		default:
			r.skip()
		}
	})
	for j, e := range c.Entries {
		if e.ID == "" {
			e.ID, e.Version = c.Name+"/"+strconv.Itoa(j+1), j+1
		}
		e.Container = c.Name
	}
	return c
}

func decodeEntry(r *jsonReader) *store.Entry {
	var e store.Entry
	var payload json.RawMessage
	r.object(func(key []byte) {
		switch string(key) {
		case "created":
			e.Created = r.time()
		case "deps":
			e.Deps = r.strs()
		case "links":
			e.Links = r.strs()
		case "payload":
			payload = r.raw()
		case "id": // version-1 images
			e.ID = r.str()
		case "version":
			e.Version = r.int()
		default:
			r.skip()
		}
	})
	return e.WithPayload(payload)
}

// decodeDesign decodes the design data. Content lands in Bytes from
// either form: FromState reads Bytes when Text is empty.
func decodeDesign(r *jsonReader) *design.State {
	if r.null() {
		return nil
	}
	st := &design.State{Classes: map[string][]design.ObjectState{}}
	r.object(func(key []byte) {
		if string(key) != "classes" {
			r.skip()
			return
		}
		r.object(func(key []byte) {
			class := string(key)
			var objs []design.ObjectState
			r.array(func(int) { objs = append(objs, decodeObject(r)) })
			st.Classes[class] = objs
		})
	})
	return st
}

func decodeObject(r *jsonReader) design.ObjectState {
	var o design.ObjectState
	var text []byte
	r.object(func(key []byte) {
		switch string(key) {
		case "version":
			o.Version = r.int()
		case "sum":
			o.Sum = r.uint64()
		case "created":
			o.Created = r.time()
		case "producer":
			o.Producer = r.str()
		case "text":
			text = bytes.Clone(r.bytes())
		case "bytes":
			o.Bytes = r.base64()
		default:
			r.skip()
		}
	})
	if len(text) > 0 { // text wins, as in FromState
		o.Bytes = text
	}
	return o
}

// decodeImageEvent decodes an image's event: the WAL's positional
// array, or a version-1 image's object, which encoding/json decodes.
func decodeImageEvent(r *jsonReader) (e engine.Event) {
	if r.peek() != '{' {
		return decodeEvent(r)
	}
	if start := r.skip(); r.err == nil {
		if err := json.Unmarshal(r.b[start:r.i], &e); err != nil {
			r.fail("version-1 event: %v", err)
		}
	}
	return e
}
