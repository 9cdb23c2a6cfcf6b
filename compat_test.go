package flowsched

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"flowsched/internal/persist"
)

// The version-1 fixtures in testdata/v1 were written by the code that
// preceded the version-2 WAL frame and project image, and must keep
// loading unchanged:
//
//   - durable/ is a crashed durable Fig4 project: a version-1
//     checkpoint, then a segment holding bare single-record JSON frames
//     and JSON array batch frames;
//   - session.json is a Snapshot of the same state;
//   - golden.json is what that code reported for the state: the store
//     version, container watermarks, event stream, clock and the /status
//     body (rendered as the server renders it).
type v1Golden struct {
	Version    uint64            `json:"version"`
	Watermarks map[string]uint64 `json:"watermarks"`
	Events     []Event           `json:"events"`
	Now        time.Time         `json:"now"`
	Status     string            `json:"status"`
}

func goldenOf(t *testing.T, p *Project) v1Golden {
	t.Helper()
	v := viewOf(t, p)
	rows, err := v.Status()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.MarshalIndent(struct {
		Now         time.Time        `json:"now"`
		PlanVersion int              `json:"planVersion"`
		Activities  []ActivityStatus `json:"activities"`
	}{v.Now(), v.PlanVersion(), rows}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	g := v1Golden{
		Version: p.mgr.DB.Version(), Watermarks: map[string]uint64{},
		Events: allEvents(p), Now: p.Now(), Status: string(body) + "\n",
	}
	for _, c := range p.mgr.DB.Containers() {
		g.Watermarks[c.Name] = c.Watermark()
	}
	return g
}

func checkGolden(t *testing.T, what string, want, got v1Golden) {
	t.Helper()
	if got.Version != want.Version || !reflect.DeepEqual(got.Watermarks, want.Watermarks) {
		t.Fatalf("%s: store version %d, watermarks %v; want %d, %v", what, got.Version, got.Watermarks, want.Version, want.Watermarks)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("%s: %d events differ from the %d recorded", what, len(got.Events), len(want.Events))
	}
	if !got.Now.Equal(want.Now) {
		t.Fatalf("%s: clock %v, want %v", what, got.Now, want.Now)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: /status body differs:\n%s\nwant\n%s", what, got.Status, want.Status)
	}
}

func TestV1FixturesLoad(t *testing.T) {
	b, err := os.ReadFile("testdata/v1/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want v1Golden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}

	// The segment holds both version-1 frame shapes.
	segs, err := filepath.Glob("testdata/v1/durable/wal-*.seg")
	if err != nil || len(segs) != 1 {
		t.Fatalf("fixture segments %v, %v", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[byte]int{}
	for off := 0; off+8 <= len(seg); off += 8 + int(binary.BigEndian.Uint32(seg[off:])) {
		shapes[seg[off+8]]++
	}
	if shapes['{'] == 0 || shapes['['] == 0 {
		t.Fatalf("fixture segment frame shapes %v, want bare records and arrays", shapes)
	}

	s, err := os.ReadFile("testdata/v1/session.json")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "session", want, goldenOf(t, loaded))

	dir := copyDir(t, "testdata/v1/durable")
	po := PersistOptions{NoSync: true, CheckpointEvery: -1}
	p, err := Open(dir, "", Options{}, po)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "durable", want, goldenOf(t, p))

	// The recovered project appends version-2 frames behind the
	// version-1 ones, and both replay.
	if err := p.SetMilestone("signoff", "performance", p.Now().Add(60*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	after := goldenOf(t, p)
	re, err := Open(dir, "", Options{}, po)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "durable after a version-2 append", after, goldenOf(t, re))
}

// The version-2 fixtures in testdata/v2 were written by the
// encoding/json image codec that preceded the hand-written one, and must
// keep loading unchanged. They hold a crashed durable ASIC project
// (durable/: a version-2 checkpoint, then a segment holding every record
// kind), a Snapshot of the same state (session.json) and what that code
// reported for it (golden.json, as for version 1). The design data holds
// newlines, '<' and '&' (which that codec escaped as \u003c and
// \u0026), and one blob that is not UTF-8 (the image's base64 "bytes"
// form); the failed STA runs' event details hold '"'.
func TestV2FixturesLoad(t *testing.T) {
	b, err := os.ReadFile("testdata/v2/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want v1Golden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}

	cp, err := os.ReadFile("testdata/v2/durable/checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{`"payload":{"v":2,`, `"bytes":"`, `\n`, `\u003c`, `\u0026`, `\"sta\"`} {
		if !bytes.Contains(cp, []byte(s)) {
			t.Fatalf("fixture checkpoint lacks %s", s)
		}
	}
	l, err := persist.Open(copyDir(t, "testdata/v2/durable"), persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[persist.RecordKind]int{}
	if _, err := l.Replay(func(r *persist.Record) error { kinds[r.Kind]++; return nil }); err != nil {
		t.Fatal(err)
	}
	l.Close()
	for k := recCreate; k <= recPlan; k++ {
		if kinds[k] == 0 {
			t.Fatalf("fixture segment holds no record of kind %d: %v", k, kinds)
		}
	}

	s, err := os.ReadFile("testdata/v2/session.json")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "session", want, goldenOf(t, loaded))

	dir := copyDir(t, "testdata/v2/durable")
	po := PersistOptions{NoSync: true, CheckpointEvery: -1}
	p, err := Open(dir, "", Options{}, po)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "durable", want, goldenOf(t, p))

	// A checkpoint written now restores the same state.
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, "", Options{}, po)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "durable after a new checkpoint", want, goldenOf(t, re))
}

// testdata/v2/shadowed is a crashed durable ASIC project, log only,
// written by the design store that kept a cross-class content index. It
// imported the same bytes as rtl and constraints, a testbench, then the
// same bytes into rtl again. That index remembered only the constraints
// copy, so the second rtl import filed rtl@2 with the content of rtl@1,
// and the log holds both inserts. Replay files every logged insert as
// it was filed, so both rtl versions come back and the rtl entity that
// links rtl@2 still runs.
func TestShadowedFixtureReplaysVerbatim(t *testing.T) {
	p, err := Open(copyDir(t, "testdata/v2/shadowed"), "", Options{}, PersistOptions{NoSync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rtl := p.mgr.Data.Chains()["rtl"]
	if len(rtl) != 2 || rtl[0].Ref.Sum != rtl[1].Ref.Sum || string(rtl[0].Bytes) != string(rtl[1].Bytes) {
		t.Fatalf("recovered %d rtl versions, want two of one content", len(rtl))
	}
	if c := p.mgr.Data.Latest("constraints"); c == nil || c.Ref.Sum != rtl[0].Ref.Sum {
		t.Fatalf("recovered constraints %v, want the rtl content", c)
	}
	if err := p.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run([]string{"simreport"}, false); err != nil {
		t.Fatalf("recovered project cannot run: %v", err)
	}
}
