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
//	recPlan     planVersion   (legacy: read and checked, never written)
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
// event is set, or none for a legacy plan record, which only decodes.
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
		return 0, nil, fmt.Errorf("flowsched: plan records are no longer written")
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
		payload := e.Payload()
		if len(e.Deps) > 0 || payload != nil {
			b = appendStrings(append(b, ','), e.Deps)
		}
		if payload != nil {
			b = append(append(b, ','), payload...)
		}
		return recPut, append(b, ']'), nil
	case store.MutPayload:
		pre, suf := payloadDelta(m.Prev, m.Payload)
		b = appendString(append(b, ','), m.ID)
		b = strconv.AppendInt(append(b, ','), int64(pre), 10)
		b = strconv.AppendInt(append(b, ','), int64(suf), 10)
		b = appendString(append(b, ','), m.Payload[pre:len(m.Payload)-suf])
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

// appendString appends s as a JSON string. '"', '\\' and control
// characters are escaped (newline, return and tab in their short forms)
// and each byte that is not UTF-8 becomes \ufffd, as encoding/json
// writes it; everything else passes through. s is a string or the
// bytes of one, which are not copied into a string first.
func appendString[S ~string | ~[]byte](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
			if i += n; r == utf8.RuneError && n == 1 {
				b = append(append(b, s[start:i-1]...), `\ufffd`...)
				start = i
			}
			continue
		}
		switch {
		case c == '"' || c == '\\':
			b = append(append(b, s[start:i]...), '\\', c)
		case c == '\n':
			b = append(append(b, s[start:i]...), '\\', 'n')
		case c == '\r':
			b = append(append(b, s[start:i]...), '\\', 'r')
		case c == '\t':
			b = append(append(b, s[start:i]...), '\\', 't')
		case c < 0x20:
			b = append(append(b, s[start:i]...), '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			i++
			continue
		}
		i++
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendStrings appends ss as a JSON array of strings.
func appendStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendTime appends t as a JSON number of Unix nanoseconds when it is
// in UTC and within int64 nanoseconds (years 1678 to 2262) — every
// virtual-clock reading of a project that starts in UTC — and as an
// RFC 3339 string (appendRFC3339) otherwise.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	if t.Location() == time.UTC {
		if ns := t.UnixNano(); time.Unix(0, ns).Equal(t) {
			return strconv.AppendInt(b, ns, 10), nil
		}
	}
	return appendRFC3339(b, t)
}

// appendRFC3339 appends t as encoding/json writes a time.Time: an
// RFC 3339 string, refused outside years 0–9999 and zone offsets of a
// day or more, which RFC 3339 cannot hold.
func appendRFC3339(b []byte, t time.Time) ([]byte, error) {
	if _, off := t.Zone(); t.Year() < 0 || t.Year() > 9999 || off <= -86400 || off >= 86400 {
		return nil, fmt.Errorf("flowsched: time %v out of the JSON range", t)
	}
	return t.AppendFormat(b, `"`+time.RFC3339Nano+`"`), nil
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

func decodeBody(rec *persist.Record, base func(id string) (json.RawMessage, bool)) (walRecord, error) {
	if rec.Kind == persist.KindV1 {
		return decodeV1(rec.Body)
	}
	r := &jsonReader{b: rec.Body}
	w, err := decodeV2(r, rec.Kind, base)
	if r.end(); err == nil {
		err = r.err
	}
	return w, err
}

// decodeV2 decodes a version-2 record body of the given kind with r.
func decodeV2(r *jsonReader, kind persist.RecordKind, base func(id string) (json.RawMessage, bool)) (walRecord, error) {
	switch kind {
	case recData:
		n, k := binary.Uvarint(r.b)
		if k <= 0 || n > uint64(len(r.b)-k) {
			return walRecord{}, fmt.Errorf("data record content out of bounds")
		}
		d := &dataPut{}
		if n > 0 {
			d.Bytes = r.b[k : k+int(n)] // design.Store.Append copies it
		}
		r.i = k + int(n)
		r.tuple(2, &d.Class, &d.Created, &d.Producer)
		return walRecord{data: d}, nil
	case recEvent:
		e := decodeEvent(r)
		return walRecord{event: &e}, nil
	case recPlan:
		return walRecord{plan: r.int()}, nil
	}
	m := &store.Mutation{}
	switch kind {
	case recCreate:
		m.Kind = store.MutCreate
		r.tuple(4, &m.Version, &m.Container, (*string)(&m.Space), &m.Class)
	case recPut:
		m.Kind = store.MutPut
		var e store.Entry
		var payload json.RawMessage
		if r.tuple(3, &m.Version, &e.ID, &e.Created, &e.Deps, &payload); r.err != nil { // a null payload stays "null"
			break
		}
		i := strings.LastIndexByte(e.ID, '/')
		if i < 0 {
			return walRecord{}, fmt.Errorf("put of malformed entry id %q", e.ID)
		}
		e.Container = e.ID[:i]
		var err error
		if e.Version, err = strconv.Atoi(e.ID[i+1:]); err != nil {
			return walRecord{}, fmt.Errorf("put of malformed entry id %q", e.ID)
		}
		m.Entry = e.WithPayload(payload)
	case recPayload:
		m.Kind = store.MutPayload
		var pre, suf int
		var mid string
		var sum uint32
		if r.tuple(6, &m.Version, &m.ID, &pre, &suf, &mid, &sum); r.err != nil || base == nil {
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
		r.tuple(3, &m.Version, &m.A, &m.B)
	case recTouch:
		m.Kind = store.MutTouch
		m.Version = r.uint64()
	default:
		return walRecord{}, fmt.Errorf("unknown kind %d", kind)
	}
	return walRecord{mut: m}, nil
}

// decodeEvent decodes a positional event: ["kind","activity",at] with
// an optional trailing "detail".
func decodeEvent(r *jsonReader) (e engine.Event) {
	r.tuple(3, (*string)(&e.Kind), &e.Activity, &e.At, &e.Detail)
	return e
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
		out.Entry = store.Entry{ID: e.ID, Container: e.Container, Version: e.Version,
			Created: e.Created, Deps: e.Deps}.WithPayload(e.Payload())
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
