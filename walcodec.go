package flowsched

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"flowsched/internal/engine"
	"flowsched/internal/persist"
	"flowsched/internal/store"
)

// WAL record bodies. The log (package persist) frames opaque bodies
// under a kind byte; this file owns what they say. Store mutations and
// events are positional JSON arrays with no empty or derivable field:
//
//	recCreate   [version,"container","space","class"]
//	recPut      [version,"id",created] + ,deps + ,payload   (trailing fields only when set)
//	recPayload  [version,"id",prefix,suffix,"middle",crc32]
//	recLink     [version,"a","b"]
//	recTouch    version
//	recEvent    ["kind","activity",at] + ,"detail"
//	recPlan     planVersion
//	recData     uvarint n, n bytes of raw content, then ["class",created] or ["class",created,"producer"]
//
// version is the store's mutation counter after the commit, kept so
// replay can check it reproduces every commit. A put keeps only the
// entry's ID: its container and version follow from it. A payload
// update is a byte delta against the payload it replaced: the new
// payload is the old one's first prefix bytes, then middle, then the
// old one's last suffix bytes, and crc32 (IEEE) covers the result, so
// a delta applied to the wrong base fails instead of yielding a wrong
// payload. Times (created, at) are Unix nanoseconds, or RFC 3339
// strings outside UTC (see appendTime). Design data keeps its content
// raw rather than in base64.
const (
	recCreate persist.RecordKind = iota + 1
	recPut
	recPayload
	recLink
	recTouch
	recData
	recEvent
	recPlan
)

// walRecord is one WAL record in memory: exactly one of mut, data and
// event is set, or none for a plan selection.
type walRecord struct {
	mut   *store.Mutation
	data  *dataPut
	event *engine.Event
	plan  int
}

// dataPut records one design-data insert. Replaying the inserts in order
// against an empty design store reproduces every version chain and
// content address (Put assigns versions densely and hashes content).
// The JSON tags are the version-1 record's.
type dataPut struct {
	Class    string    `json:"class"`
	Producer string    `json:"producer,omitempty"`
	Created  time.Time `json:"created"`
	Bytes    []byte    `json:"bytes"`
}

// appendRecord appends w's body to b and returns w's kind.
func appendRecord(b []byte, w walRecord) (persist.RecordKind, []byte, error) {
	switch {
	case w.mut != nil:
		return appendMutation(b, w.mut)
	case w.data != nil:
		d := w.data
		b = append(binary.AppendUvarint(b, uint64(len(d.Bytes))), d.Bytes...)
		b = appendString(append(b, '['), d.Class)
		b, err := appendTime(append(b, ','), d.Created)
		if err != nil {
			return 0, nil, err
		}
		if d.Producer != "" {
			b = appendString(append(b, ','), d.Producer)
		}
		return recData, append(b, ']'), nil
	case w.event != nil:
		b, err := appendEvent(b, w.event)
		return recEvent, b, err
	default:
		return recPlan, strconv.AppendInt(b, int64(w.plan), 10), nil
	}
}

func appendMutation(b []byte, m *store.Mutation) (persist.RecordKind, []byte, error) {
	if m.Kind == store.MutTouch {
		return recTouch, strconv.AppendUint(b, m.Version, 10), nil
	}
	b = strconv.AppendUint(append(b, '['), m.Version, 10)
	switch m.Kind {
	case store.MutCreate:
		b = appendString(append(b, ','), m.Container)
		b = appendString(append(b, ','), string(m.Space))
		b = appendString(append(b, ','), m.Class)
		return recCreate, append(b, ']'), nil
	case store.MutPut:
		e := m.Entry
		if e == nil {
			return 0, nil, fmt.Errorf("flowsched: put mutation %d without entry", m.Version)
		}
		b = appendString(append(b, ','), e.ID)
		b, err := appendTime(append(b, ','), e.Created)
		if err != nil {
			return 0, nil, err
		}
		if len(e.Deps) > 0 || e.Payload != nil {
			b = append(b, ",["...)
			for i, d := range e.Deps {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendString(b, d)
			}
			b = append(b, ']')
		}
		if e.Payload != nil {
			b = append(append(b, ','), e.Payload...)
		}
		return recPut, append(b, ']'), nil
	case store.MutPayload:
		pre, suf := payloadDelta(m.Prev, m.Payload)
		b = appendString(append(b, ','), m.ID)
		b = strconv.AppendInt(append(b, ','), int64(pre), 10)
		b = strconv.AppendInt(append(b, ','), int64(suf), 10)
		b = appendString(append(b, ','), string(m.Payload[pre:len(m.Payload)-suf]))
		b = strconv.AppendUint(append(b, ','), uint64(crc32.ChecksumIEEE(m.Payload)), 10)
		return recPayload, append(b, ']'), nil
	case store.MutLink:
		b = appendString(append(b, ','), m.A)
		b = appendString(append(b, ','), m.B)
		return recLink, append(b, ']'), nil
	}
	return 0, nil, fmt.Errorf("flowsched: unknown mutation kind %q", m.Kind)
}

// payloadDelta returns the lengths of the longest common prefix and
// suffix of prev and next that do not overlap in either and end on
// UTF-8 rune boundaries of next, so the middle is whole runes.
func payloadDelta(prev, next []byte) (prefix, suffix int) {
	n := min(len(prev), len(next))
	for prefix < n && prev[prefix] == next[prefix] {
		prefix++
	}
	for suffix < n-prefix && prev[len(prev)-1-suffix] == next[len(next)-1-suffix] {
		suffix++
	}
	for prefix > 0 && prefix < len(next) && !utf8.RuneStart(next[prefix]) {
		prefix--
	}
	for suffix > 0 && !utf8.RuneStart(next[len(next)-suffix]) {
		suffix--
	}
	return prefix, suffix
}

func appendEvent(b []byte, e *engine.Event) ([]byte, error) {
	b = appendString(append(b, '['), string(e.Kind))
	b = appendString(append(b, ','), e.Activity)
	b, err := appendTime(append(b, ','), e.At)
	if err != nil {
		return nil, err
	}
	if e.Detail != "" {
		b = appendString(append(b, ','), e.Detail)
	}
	return append(b, ']'), nil
}

// appendString appends s as a JSON string. Valid UTF-8 passes through
// except '"', '\\' and control characters, which are escaped; anything
// else takes encoding/json's path, as version-1 records did.
func appendString(b []byte, s string) []byte {
	if !utf8.ValidString(s) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(b, q...)
	}
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(append(b, s[start:i]...), '\\', c)
		case c < 0x20:
			b = append(append(b, s[start:i]...), '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			continue
		}
		start = i + 1
	}
	return append(append(b, s[start:]...), '"')
}

// appendTime appends t as a JSON number of Unix nanoseconds when it is
// in UTC and within int64 nanoseconds (years 1678 to 2262) — every
// virtual-clock reading of a project that starts in UTC — and as
// encoding/json writes it, an RFC 3339 string, otherwise.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	if t.Location() == time.UTC {
		if ns := t.UnixNano(); time.Unix(0, ns).Equal(t) {
			return strconv.AppendInt(b, ns, 10), nil
		}
	}
	if y := t.Year(); y < 0 || y > 9999 {
		return nil, fmt.Errorf("flowsched: time %v out of the JSON range", t)
	}
	return t.AppendFormat(b, `"`+time.RFC3339Nano+`"`), nil
}

// jsonTime is a time.Time that encodes with appendTime and decodes
// either form.
type jsonTime time.Time

func (t jsonTime) MarshalJSON() ([]byte, error) { return appendTime(nil, time.Time(t)) }

func (t *jsonTime) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		return (*time.Time)(t).UnmarshalJSON(b)
	}
	ns, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("flowsched: time %s: %w", b, err)
	}
	*t = jsonTime(time.Unix(0, ns).UTC())
	return nil
}

// decodeRecord decodes one replayed record. base returns the current
// payload of an entry, the one a payload delta applies to; with a nil
// base a payload record decodes without its payload (Payload and Prev
// stay nil), for readers that only inspect the stream.
func decodeRecord(r *persist.Record, base func(id string) (json.RawMessage, bool)) (walRecord, error) {
	w, err := decodeBody(r, base)
	if err != nil {
		return walRecord{}, fmt.Errorf("flowsched: record %d: %w", r.Seq, err)
	}
	return w, nil
}

func decodeBody(r *persist.Record, base func(id string) (json.RawMessage, bool)) (walRecord, error) {
	switch r.Kind {
	case persist.KindV1:
		return decodeV1(r.Body)
	case recData:
		n, k := binary.Uvarint(r.Body)
		if k <= 0 || n > uint64(len(r.Body)-k) {
			return walRecord{}, fmt.Errorf("data record content out of bounds")
		}
		d := &dataPut{}
		if n > 0 {
			d.Bytes = r.Body[k : k+int(n)]
		}
		if _, err := fields(r.Body[k+int(n):], 2, &d.Class, (*jsonTime)(&d.Created), &d.Producer); err != nil {
			return walRecord{}, err
		}
		return walRecord{data: d}, nil
	case recEvent:
		e, err := decodeEvent(r.Body)
		return walRecord{event: e}, err
	case recPlan:
		var v int
		err := json.Unmarshal(r.Body, &v)
		return walRecord{plan: v}, err
	}
	m := &store.Mutation{}
	var err error
	switch r.Kind {
	case recCreate:
		m.Kind = store.MutCreate
		_, err = fields(r.Body, 4, &m.Version, &m.Container, &m.Space, &m.Class)
	case recPut:
		m.Kind, m.Entry = store.MutPut, &store.Entry{}
		e := m.Entry
		var present int
		if present, err = fields(r.Body, 3, &m.Version, &e.ID, (*jsonTime)(&e.Created), &e.Deps, &e.Payload); err != nil {
			break
		}
		if len(e.Deps) == 0 {
			e.Deps = nil
		}
		if present == 5 && e.Payload == nil {
			e.Payload = json.RawMessage("null") // a JSON null payload decodes as absent
		}
		i := strings.LastIndexByte(e.ID, '/')
		if i < 0 {
			return walRecord{}, fmt.Errorf("put of malformed entry id %q", e.ID)
		}
		e.Container = e.ID[:i]
		if e.Version, err = strconv.Atoi(e.ID[i+1:]); err != nil {
			return walRecord{}, fmt.Errorf("put of malformed entry id %q", e.ID)
		}
	case recPayload:
		m.Kind = store.MutPayload
		var pre, suf int
		var mid string
		var sum uint32
		if _, err = fields(r.Body, 6, &m.Version, &m.ID, &pre, &suf, &mid, &sum); err != nil || base == nil {
			break
		}
		prev, ok := base(m.ID)
		if !ok {
			return walRecord{}, fmt.Errorf("payload update of unknown entry %q", m.ID)
		}
		if pre < 0 || suf < 0 || pre > len(prev) || suf > len(prev)-pre {
			return walRecord{}, fmt.Errorf("payload delta for %s out of bounds of its base", m.ID)
		}
		next := make(json.RawMessage, 0, pre+len(mid)+suf)
		next = append(append(append(next, prev[:pre]...), mid...), prev[len(prev)-suf:]...)
		if crc32.ChecksumIEEE(next) != sum {
			return walRecord{}, fmt.Errorf("payload delta for %s does not match its base", m.ID)
		}
		m.Payload, m.Prev = next, prev
	case recLink:
		m.Kind = store.MutLink
		_, err = fields(r.Body, 3, &m.Version, &m.A, &m.B)
	case recTouch:
		m.Kind = store.MutTouch
		err = json.Unmarshal(r.Body, &m.Version)
	default:
		return walRecord{}, fmt.Errorf("unknown kind %d", r.Kind)
	}
	if err != nil {
		return walRecord{}, err
	}
	return walRecord{mut: m}, nil
}

// decodeEvent decodes a positional event: ["kind","activity",at] with
// an optional trailing "detail".
func decodeEvent(b []byte) (*engine.Event, error) {
	e := &engine.Event{}
	_, err := fields(b, 3, &e.Kind, &e.Activity, (*jsonTime)(&e.At), &e.Detail)
	return e, err
}

// fields decodes the JSON array b into ptrs, in order, and returns how
// many elements it held: at least least, and at most one per pointer.
func fields(b []byte, least int, ptrs ...any) (int, error) {
	most := len(ptrs)
	if err := json.Unmarshal(b, &ptrs); err != nil {
		return 0, err
	}
	if len(ptrs) < least || len(ptrs) > most {
		return 0, fmt.Errorf("record has %d fields, want %d to %d", len(ptrs), least, most)
	}
	return len(ptrs), nil
}

// v1Record is a version-1 WAL record: a JSON object per record with the
// sequence, clock and kind beside one typed body.
type v1Record struct {
	Kind  string          `json:"kind"`
	Store *store.Mutation `json:"store"`
	Data  *dataPut        `json:"data"`
	Event *engine.Event   `json:"event"`
	Plan  *struct {
		Version int `json:"version"`
	} `json:"plan"`
}

func decodeV1(b []byte) (walRecord, error) {
	var r v1Record
	if err := json.Unmarshal(b, &r); err != nil {
		return walRecord{}, err
	}
	switch {
	case r.Kind == "store" && r.Store != nil:
		m, err := v1Mutation(r.Store)
		return walRecord{mut: m}, err
	case r.Kind == "data" && r.Data != nil:
		return walRecord{data: r.Data}, nil
	case r.Kind == "event" && r.Event != nil:
		return walRecord{event: r.Event}, nil
	case r.Kind == "plan" && r.Plan != nil:
		return walRecord{plan: r.Plan.Version}, nil
	}
	return walRecord{}, fmt.Errorf("version-1 record of kind %q without its body", r.Kind)
}

// v1Mutation keeps the fields of a version-1 store mutation that its
// kind uses, which are the ones a version-2 record holds: a version-1
// record spells out every Mutation field, null or not. It rejects what
// no store commit writes, so that replay would fail on or a version-2
// record could not carry: an unknown kind, a put without its entry or
// whose ID is not its container and version, and a payload that is not
// UTF-8 (store payloads are json.Marshal output).
func v1Mutation(m *store.Mutation) (*store.Mutation, error) {
	out := &store.Mutation{Kind: m.Kind, Version: m.Version}
	switch m.Kind {
	case store.MutCreate:
		out.Container, out.Space, out.Class = m.Container, m.Space, m.Class
	case store.MutPut:
		e := m.Entry
		if e == nil || e.ID != e.Container+"/"+strconv.Itoa(e.Version) {
			return nil, fmt.Errorf("version-1 put of malformed entry %+v", e)
		}
		out.Entry = &store.Entry{ID: e.ID, Container: e.Container, Version: e.Version,
			Created: e.Created, Deps: e.Deps, Payload: e.Payload}
	case store.MutPayload:
		if !utf8.Valid(m.Payload) {
			return nil, fmt.Errorf("version-1 payload update of %s is not UTF-8", m.ID)
		}
		out.ID, out.Payload, out.Prev = m.ID, m.Payload, m.Prev
	case store.MutLink:
		out.A, out.B = m.A, m.B
	case store.MutTouch:
	default:
		return nil, fmt.Errorf("version-1 mutation of unknown kind %q", m.Kind)
	}
	return out, nil
}
