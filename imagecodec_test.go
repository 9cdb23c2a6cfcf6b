package flowsched

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"flowsched/internal/persist"
)

// malformedSessions are damaged copies of a small saved session, each
// with a fragment of the error Load must give. Every row is also a seed
// of FuzzLoad (testdata/fuzz/FuzzLoad/malformed-*).
func malformedSessions(t *testing.T) []struct{ name, blob, err string } {
	t.Helper()
	s, err := prepared(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base := string(s)
	data := strings.Index(base, `"data":{"classes":`)
	if !strings.HasPrefix(base, `{"v":2,`) || data < 0 || !strings.Contains(base, `"designer":"ewj"`) ||
		!strings.Contains(base, `"watermark":`) || !strings.Contains(base, `"payload":{`) {
		t.Fatalf("session lacks what the rows damage: %s", base)
	}
	designer := func(v string) string { return strings.Replace(base, `"designer":"ewj"`, `"designer":`+v, 1) }
	const overflow = "18446744073709551616" // 2^64
	return []struct{ name, blob, err string }{
		{"trailing-bytes", base + ` {}`, "trailing bytes"},
		{"unterminated-string", base[:strings.Index(base, `"ewj"`)+3], "unterminated string"},
		{"bad-escape", designer(`"e\qj"`), "bad escape"},
		{"bad-u-escape", designer(`"e\u00zj"`), `bad \u escape`},
		{"watermark-overflow", strings.Replace(base, `"watermark":`, `"watermark":`+overflow+`0`, 1), "out of range"},
		{"sum-overflow", base[:data] + strings.Replace(base[data:], `"sum":`, `"sum":`+overflow+`0`, 1), "out of range"},
		{"payload-not-json", strings.Replace(base, `"payload":{`, `"payload":{"x":tru,`, 1), "invalid JSON value"},
		{"version-3", strings.Replace(base, `{"v":2,`, `{"v":3,`, 1), "image version 3 is not supported"},
		{"retired-db", strings.Replace(base[:data], `"store":`, `"db":`, 1) + base[data:], `retired "db" snapshot format`},
	}
}

// TestLoadRejectsMalformed checks that Load refuses each damaged session
// with an error naming the damage, and never panics.
func TestLoadRejectsMalformed(t *testing.T) {
	for _, c := range malformedSessions(t) {
		_, err := Load([]byte(c.blob), Options{})
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.err)
		}
	}
}

// TestReaderStringsMatchEncodingJSON checks that the reader decodes JSON
// strings as encoding/json does — escapes, surrogate pairs, lone
// surrogates and invalid UTF-8 (both U+FFFD) — and rejects what it
// rejects.
func TestReaderStringsMatchEncodingJSON(t *testing.T) {
	for _, lit := range []string{
		`"plain"`, `"<&>"`, `"a\"b\\c\/d"`, `"\b\f\n\r\t"`, `"é日"`, `"  "`,
		`"😀"`, `"\ud800"`, `"\udc00"`, `"\ud800x"`, `"\ud800A"`, `"\ud800𐀀"`,
		`"\udc00\ud800"`, "\"\xff\xfe\"", "\"a\xc3\"", "\"é日\"", `"😀"`,
		`"unterminated`, `"bad \x"`, `"bad \u12G4"`, `"\u12"`, "\"ctrl \x01\"", `"\`,
	} {
		var want string
		wantErr := json.Unmarshal([]byte(lit), &want)
		r := &jsonReader{b: []byte(lit)}
		got := r.str()
		r.end()
		if (r.err != nil) != (wantErr != nil) || got != want {
			t.Errorf("%s: reader %q, %v; encoding/json %q, %v", lit, got, r.err, want, wantErr)
		}
	}
}

// TestLoadDoesNotAliasInput overwrites a loaded session's bytes and
// checks that the project did not change: decoded strings, payloads and
// design content are copies.
func TestLoadDoesNotAliasInput(t *testing.T) {
	b, err := os.ReadFile("testdata/v2/session.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Load(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := goldenOf(t, p)
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clear(b)
	checkGolden(t, "after clearing the input", want, goldenOf(t, p))
	if again, err := p.Snapshot(); err != nil || !bytes.Equal(again, snap) {
		t.Fatalf("Snapshot changed after clearing the input (err %v)", err)
	}
}

// checkpointFS records the checkpoint bytes the log reads at Open.
type checkpointFS struct {
	persist.OSFS
	read []byte
}

func (f *checkpointFS) ReadFile(name string) ([]byte, error) {
	b, err := f.OSFS.ReadFile(name)
	if filepath.Base(name) == "checkpoint.json" {
		f.read = b
	}
	return b, err
}

// TestRecoveryDoesNotAliasCheckpoint recovers the version-2 fixture and
// checks that no entry payload, reference or design content points into
// the checkpoint buffer, and that clearing the buffer changes nothing.
func TestRecoveryDoesNotAliasCheckpoint(t *testing.T) {
	fs := &checkpointFS{}
	p, err := Open(copyDir(t, "testdata/v2/durable"), "", Options{},
		PersistOptions{NoSync: true, CheckpointEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.read) == 0 {
		t.Fatal("recovery read no checkpoint")
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(fs.read)))
	inside := func(p *byte, n int) bool {
		a := uintptr(unsafe.Pointer(p))
		return n > 0 && a >= lo && a < lo+uintptr(len(fs.read))
	}
	var payloads, objects int
	for _, c := range p.mgr.DB.Snapshot().Containers() {
		for _, e := range c.Entries() {
			if inside(unsafe.SliceData(e.Payload()), len(e.Payload())) {
				t.Fatalf("entry %s payload shares the checkpoint buffer", e.ID)
			}
			for _, s := range append(append([]string{e.ID}, e.Deps...), e.Links...) {
				if inside(unsafe.StringData(s), len(s)) {
					t.Fatalf("entry %s reference %q shares the checkpoint buffer", e.ID, s)
				}
			}
			payloads += len(e.Payload())
		}
	}
	for _, objs := range p.mgr.Data.Chains() {
		for _, o := range objs {
			obj, err := p.mgr.Data.Get(o.Ref)
			if err != nil {
				t.Fatal(err)
			}
			if inside(unsafe.SliceData(obj.Bytes), len(obj.Bytes)) {
				t.Fatalf("design object %s shares the checkpoint buffer", o.Ref)
			}
			objects++
		}
	}
	if payloads == 0 || objects == 0 {
		t.Fatalf("recovered %d payload bytes and %d design objects", payloads, objects)
	}

	want := goldenOf(t, p)
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clear(fs.read)
	checkGolden(t, "after clearing the checkpoint buffer", want, goldenOf(t, p))
	if again, err := p.Snapshot(); err != nil || !bytes.Equal(again, snap) {
		t.Fatalf("Snapshot changed after clearing the checkpoint buffer (err %v)", err)
	}
}

// TestImageKeepsEncodingJSONMeaning checks that the hand-written image
// means what encoding/json's did: the fixture session, loaded and saved
// again, decodes with encoding/json to the same value as the fixture
// less its legacy "planVersion", and no longer escapes '<'.
func TestImageKeepsEncodingJSONMeaning(t *testing.T) {
	old, err := os.ReadFile("testdata/v2/session.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Load(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) (v map[string]any) {
		d := json.NewDecoder(bytes.NewReader(b))
		d.UseNumber() // design sums need all 64 bits
		if err := d.Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	// The one member not written back is the legacy "planVersion": the
	// tracked plan is the newest plan in the store, checked on load.
	a, b := decode(old), decode(re)
	if _, ok := b["planVersion"]; ok {
		t.Error(`image still carries "planVersion"`)
	}
	delete(a, "planVersion")
	if !reflect.DeepEqual(a, b) {
		for k := range a {
			if !reflect.DeepEqual(a[k], b[k]) {
				t.Errorf("image member %q differs after Load → Snapshot", k)
			}
		}
	}
	if bytes.Contains(re, []byte(`\u003c`)) || !bytes.Contains(re, []byte(`<`)) {
		t.Error("strings are still HTML-escaped")
	}
}

// TestAppendStringMatchesEncodingJSON checks on random strings — ASCII,
// control characters, quotes, multi-byte runes and bytes that are not
// UTF-8 — that appendString writes valid JSON meaning what
// encoding/json's encoding means, and that the reader reads it back.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "<", "&", "\"", "\\", "/", "\n", "\r", "\t", "\x00", "\x1f", "é", "日", "😀", " ", "\xff", "\xc3", "\xed\xa0\x80"}
	for n := 0; n < 2000; n++ {
		var sb strings.Builder
		for k := rng.Intn(12); k > 0; k-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		s := sb.String()
		enc := appendString(nil, s)
		want, _ := json.Marshal(s)
		var got, wantS string
		if err := json.Unmarshal(enc, &got); err != nil {
			t.Fatalf("%q encodes to %s, which is not JSON: %v", s, enc, err)
		}
		if err := json.Unmarshal(want, &wantS); err != nil || got != wantS {
			t.Fatalf("%q encodes to %s meaning %q; encoding/json means %q", s, enc, got, wantS)
		}
		if r := (&jsonReader{b: enc}); r.str() != got || r.err != nil {
			t.Fatalf("reader reads %s back wrong: %v", enc, r.err)
		}
	}
}
