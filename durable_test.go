package flowsched

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"flowsched/internal/persist"
)

// openDurable opens a durable Fig4 project at dir with tools bound.
func openDurable(t *testing.T, dir string, po PersistOptions) *Project {
	t.Helper()
	po.NoSync = true
	p, err := Open(dir, Fig4Schema, Options{Designer: "ewj"}, po)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	return p
}

// driveTracked runs the standard mid-project workload: import, plan,
// tracked run, milestone.
func driveTracked(t *testing.T, p *Project) {
	t.Helper()
	if _, err := p.Import("stimuli", []byte("pulse 0 5 1ns")); err != nil {
		t.Fatal(err)
	}
	est := Fixed{ByActivity: map[string]time.Duration{
		"Create": 16 * time.Hour, "Simulate": 8 * time.Hour,
	}}
	if _, err := p.Plan([]string{"performance"}, est, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetMilestone("tapeout", "performance", p.Now().Add(30*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		t.Fatal(err)
	}
}

// identity captures everything recovery must reproduce bit-identically.
type projectIdentity struct {
	version     uint64
	fingerprint string
	now         time.Time
	dump        string
	events      []Event
	planVersion int
	watermarks  map[string]uint64
}

func identityOf(t *testing.T, p *Project) projectIdentity {
	t.Helper()
	fp, err := viewOf(t, p).RiskFingerprint([]string{"performance"}, RiskOptions{Trials: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	id := projectIdentity{
		version: p.mgr.DB.Version(), fingerprint: fp, now: p.Now(),
		dump: p.DatabaseDump(), events: allEvents(p),
		watermarks: map[string]uint64{},
	}
	if p.CurrentPlan() != nil {
		id.planVersion = p.CurrentPlan().Version
	}
	for _, c := range p.mgr.DB.Containers() {
		id.watermarks[c.Name] = c.Watermark()
	}
	return id
}

func checkIdentity(t *testing.T, want, got projectIdentity) {
	t.Helper()
	if got.version != want.version {
		t.Fatalf("store version = %d, want %d", got.version, want.version)
	}
	if got.fingerprint != want.fingerprint {
		t.Fatalf("risk fingerprint = %q, want %q", got.fingerprint, want.fingerprint)
	}
	if !got.now.Equal(want.now) {
		t.Fatalf("clock = %v, want %v", got.now, want.now)
	}
	if got.dump != want.dump {
		t.Fatalf("database dump changed across recovery:\n%s\nvs\n%s", got.dump, want.dump)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Fatalf("event stream changed: %d events vs %d", len(got.events), len(want.events))
	}
	if got.planVersion != want.planVersion {
		t.Fatalf("tracked plan version = %d, want %d", got.planVersion, want.planVersion)
	}
	if !reflect.DeepEqual(got.watermarks, want.watermarks) {
		t.Fatalf("container watermarks changed: %v vs %v", got.watermarks, want.watermarks)
	}
}

// TestDurableRecoveryBitIdentical is the core replay=rebuild contract:
// a project recovered from its WAL alone (no Close, as after kill -9)
// matches the crashed process bit-for-bit — store version, watermarks,
// risk fingerprint, event stream, clock, tracked plan.
func TestDurableRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	p := openDurable(t, dir, PersistOptions{})
	driveTracked(t, p)
	want := identityOf(t, p)
	// No Close: the process "crashes" here; only the WAL survives.

	re := openDurable(t, dir, PersistOptions{})
	checkIdentity(t, want, identityOf(t, re))

	// The recovered project keeps executing and stays durable.
	if _, err := re.Run([]string{"performance"}, false); err != nil {
		t.Fatal(err)
	}
	want2 := identityOf(t, re)
	re2 := openDurable(t, dir, PersistOptions{})
	checkIdentity(t, want2, identityOf(t, re2))
}

// TestDurableNeutralOperationLogsNothing: a propagate that finds no slip
// leaves the version and the log as they are, and one that finds none
// after the clock moved logs a touch that carries the clock, so a
// recovery from the log alone reads the same clock.
func TestDurableNeutralOperationLogsNothing(t *testing.T) {
	dir := t.TempDir()
	p := openDurable(t, dir, PersistOptions{})
	driveTracked(t, p)
	version, seq := p.Version(), p.WALSeq()
	if _, err := p.Propagate(); err != nil {
		t.Fatal(err)
	}
	if p.Version() != version || p.WALSeq() != seq {
		t.Fatalf("neutral propagate moved version %d→%d, WAL seq %d→%d", version, p.Version(), seq, p.WALSeq())
	}

	p.mgr.Clock.Advance(2 * time.Hour) // every activity is done: still no slip
	if _, err := p.Propagate(); err != nil {
		t.Fatal(err)
	}
	if p.Version() != version+1 || p.WALSeq() != seq+1 {
		t.Fatalf("clock-only propagate: version %d→%d, WAL seq %d→%d; want one touch", version, p.Version(), seq, p.WALSeq())
	}
	want := identityOf(t, p)
	checkIdentity(t, want, identityOf(t, openDurable(t, dir, PersistOptions{})))
}

// TestDurableRecoveryViaCheckpoint proves checkpoint + tail replay is
// equivalent to pure replay.
func TestDurableRecoveryViaCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p := openDurable(t, dir, PersistOptions{})
	driveTracked(t, p)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Mutations after the checkpoint land in the fresh segment.
	if _, err := p.Run([]string{"performance"}, false); err != nil {
		t.Fatal(err)
	}
	want := identityOf(t, p)

	re := openDurable(t, dir, PersistOptions{})
	checkIdentity(t, want, identityOf(t, re))
}

// TestDurableCloseAndReopen covers the graceful path: Close checkpoints,
// so reopen replays nothing and still matches.
func TestDurableCloseAndReopen(t *testing.T) {
	dir := t.TempDir()
	p := openDurable(t, dir, PersistOptions{})
	driveTracked(t, p)
	want := identityOf(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir, PersistOptions{})
	checkIdentity(t, want, identityOf(t, re))
}

// TestDurableAutoCheckpoint pins the replay-debt bound: with a tiny
// CheckpointEvery, mutating operations install checkpoints on their own.
func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p := openDurable(t, dir, PersistOptions{CheckpointEvery: 8})
	driveTracked(t, p)
	if p.rec.log.SinceCheckpoint() > 8+64 {
		// An operation may overshoot (checkpoint happens after it), but
		// debt must not accumulate across operations.
		t.Fatalf("replay debt %d with CheckpointEvery=8", p.rec.log.SinceCheckpoint())
	}
	if _, seq, ok := p.rec.log.Checkpoint(); !ok || seq == 0 {
		t.Fatal("no auto-checkpoint installed")
	}
	want := identityOf(t, p)
	re := openDurable(t, dir, PersistOptions{})
	checkIdentity(t, want, identityOf(t, re))
}

// TestDurableSchemaFixedAtCreate: the manifest wins over the schemaSrc
// argument on reopen, and a fresh open without a schema fails.
func TestDurableSchemaFixedAtCreate(t *testing.T) {
	dir := t.TempDir()
	p := openDurable(t, dir, PersistOptions{})
	driveTracked(t, p)
	want := identityOf(t, p)
	re, err := Open(dir, ASICSchema, Options{Designer: "ewj"}, PersistOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, want, identityOf(t, re))
	if _, err := Open(t.TempDir(), "", Options{}, PersistOptions{NoSync: true}); err == nil {
		t.Fatal("fresh open without schema accepted")
	}
}

// TestDurableRejectsCheckpointWithoutStore installs a checkpoint whose
// payload passes its CRC but carries no store state, with no segments
// left to replay: Open must refuse it with an error, not panic.
func TestDurableRejectsCheckpointWithoutStore(t *testing.T) {
	dir := t.TempDir()
	if err := openDurable(t, dir, PersistOptions{}).Close(); err != nil {
		t.Fatal(err)
	}
	log, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := log.WriteCheckpoint([]byte(`{"now":"1995-06-05T09:00:00Z","data":{}}`)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) != 0 {
		t.Fatalf("segments left behind: %v", segs)
	}
	_, err = Open(dir, Fig4Schema, Options{}, PersistOptions{NoSync: true})
	if err == nil || !strings.Contains(err.Error(), "store: state: missing") {
		t.Fatalf("checkpoint without store: err = %v", err)
	}
}

// TestDurableForkIsNotDurable: forks explore what-ifs; they must not
// write to the parent's log.
func TestDurableForkIsNotDurable(t *testing.T) {
	dir := t.TempDir()
	p := openDurable(t, dir, PersistOptions{})
	driveTracked(t, p)
	seq := p.WALSeq()
	f, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f.Durable() {
		t.Fatal("fork claims durability")
	}
	if _, err := f.Run([]string{"performance"}, false); err != nil {
		t.Fatal(err)
	}
	if p.WALSeq() != seq {
		t.Fatalf("fork execution appended %d records to the parent log", p.WALSeq()-seq)
	}
}

// TestDurableTornTailRecoversCleanPrefix damages the live segment's tail
// and recovers: the project must come back as a consistent earlier
// moment, never a partial mutation.
func TestDurableTornTailRecoversCleanPrefix(t *testing.T) {
	dir := t.TempDir()
	p := openDurable(t, dir, PersistOptions{})
	driveTracked(t, p)
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	tail := segs[len(segs)-1]
	b, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tail, b[:len(b)-len(b)/4], 0o644); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir, PersistOptions{})
	if got := re.mgr.DB.Version(); got == 0 || got >= p.mgr.DB.Version() {
		t.Fatalf("recovered version %d vs crashed %d — want a non-empty proper prefix",
			got, p.mgr.DB.Version())
	}
	// The recovered prefix is internally consistent: it can keep going.
	if _, err := re.Run([]string{"performance"}, false); err != nil {
		t.Fatal(err)
	}
}

// TestFailedRunIsDurable pins the flush on a failed operation's error
// return: a RunWith that aborts with *ExecError after completing some
// activities has changed the store, and those changes must be durable
// when it returns — not only after the next successful write. So must a
// Resume of it, whatever its outcome. The crash image is taken without
// Close, so nothing but the operations' own flushes can have written
// the records.
func TestFailedRunIsDurable(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		dir := t.TempDir()
		p := openDurable(t, dir, PersistOptions{CheckpointEvery: -1})
		if _, err := p.Import("stimuli", []byte("pulse 0 5 1ns")); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := p.InjectFaults(FaultConfig{Seed: seed, Crash: 0.5, CrashBurst: 3}); err != nil {
			t.Fatal(err)
		}
		_, err := p.RunWith([]string{"performance"}, RunOptions{AutoComplete: true})
		var ee *ExecError
		if !errors.As(err, &ee) || len(ee.Completed()) == 0 {
			continue // this seed did not abort after completed work
		}
		checkCrashImage := func(what string) {
			t.Helper()
			re := openDurable(t, copyDir(t, dir), PersistOptions{})
			if re.Version() != p.Version() || re.EventCount() != p.EventCount() {
				t.Fatalf("seed %d, %s: crash image recovered version %d with %d events, live project is at %d with %d",
					seed, what, re.Version(), re.EventCount(), p.Version(), p.EventCount())
			}
			if re.DatabaseDump() != p.DatabaseDump() {
				t.Fatalf("seed %d, %s: crash image's database differs from the live project", seed, what)
			}
		}
		checkCrashImage("failed RunWith")
		ee.Resume()
		checkCrashImage("Resume")
		return
	}
	t.Fatal("no seed in 0..63 aborts a run after completing an activity")
}

// designChains renders every design object of p, class by class in
// order, so two projects' Level 4 data compare as strings.
func designChains(p *Project) string {
	chains := p.mgr.Data.Chains()
	classes := make([]string, 0, len(chains))
	for class := range chains {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	var b strings.Builder
	for _, class := range classes {
		for _, o := range chains[class] {
			fmt.Fprintf(&b, "%s %s %s %q\n", o.Ref, o.Producer, o.Created.Format(time.RFC3339Nano), o.Bytes)
		}
	}
	return b.String()
}

// sharedBytesSession imports the same bytes as rtl and as constraints,
// then a testbench, into a fresh ASIC project: the content that two
// classes file under one content address.
func sharedBytesSession(t *testing.T, p *Project) []byte {
	t.Helper()
	if err := p.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	same := []byte("module top; endmodule\n")
	for _, class := range []string{"rtl", "constraints"} {
		if _, err := p.Import(class, same); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Import("testbench", []byte("initial $finish;\n")); err != nil {
		t.Fatal(err)
	}
	return same
}

// TestDurableRecoverySharedBytesAcrossClasses: the same bytes imported
// into rtl and constraints, a checkpoint, the bytes imported into rtl
// again, and a crash. Recovery restores the checkpoint's design chains
// and replays the tail; whichever order the checkpoint's classes are
// restored in, the recovered project holds the live project's chains
// and database and runs to sign-off. Twenty cycles, because the order a
// restore visits classes in may vary from run to run.
func TestDurableRecoverySharedBytesAcrossClasses(t *testing.T) {
	for cycle := 0; cycle < 20; cycle++ {
		dir := t.TempDir()
		p, err := Open(dir, ASICSchema, Options{Designer: "ewj"}, PersistOptions{NoSync: true, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		same := sharedBytesSession(t, p)
		if err := p.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Import("rtl", same); err != nil {
			t.Fatal(err)
		}
		// No Close: the process crashes here.
		re, err := Open(dir, "", Options{}, PersistOptions{NoSync: true, CheckpointEvery: -1})
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if got, want := designChains(re), designChains(p); got != want {
			t.Fatalf("cycle %d: recovered design chains\n%s\nwant\n%s", cycle, got, want)
		}
		if re.DatabaseDump() != p.DatabaseDump() {
			t.Fatalf("cycle %d: recovered database differs from the live project", cycle)
		}
		if err := re.UseSimulatedTools(); err != nil {
			t.Fatal(err)
		}
		if _, err := re.Run([]string{"simreport"}, false); err != nil {
			t.Fatalf("cycle %d: recovered project cannot run: %v", cycle, err)
		}
	}
}

// TestLoadSharedBytesAcrossClasses is the session twin of
// TestDurableRecoverySharedBytesAcrossClasses: every Load of one
// session deduplicates a re-import of the shared bytes into rtl to the
// rtl version that already holds them, as the live project does.
func TestLoadSharedBytesAcrossClasses(t *testing.T) {
	p, err := New(ASICSchema, Options{Designer: "ewj"})
	if err != nil {
		t.Fatal(err)
	}
	same := sharedBytesSession(t, p)
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := p.mgr.Data.Latest("rtl").Ref
	if _, err := p.Import("rtl", same); err != nil {
		t.Fatal(err)
	}
	if got := p.mgr.Data.Latest("rtl").Ref; got != want {
		t.Fatalf("live re-import filed %v, want %v", got, want)
	}
	for i := 0; i < 20; i++ {
		l, err := Load(snap, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Import("rtl", same); err != nil {
			t.Fatal(err)
		}
		if got := l.mgr.Data.Latest("rtl").Ref; got != want {
			t.Fatalf("load %d: re-import filed %v, want %v", i, got, want)
		}
	}
}

// TestLegacyPlanSelectionMustNameNewestPlan: logs and images written
// before the tracked plan was read from the schedule space also name it,
// in a plan record or an image's "planVersion". The tracked plan was
// always the newest plan, so such a name still loads when it names the
// newest plan, and recovery refuses a log or session that names an
// older one: that state diverged from the one it claims to log.
func TestLegacyPlanSelectionMustNameNewestPlan(t *testing.T) {
	for _, named := range []int{2, 1} {
		dir := t.TempDir()
		p := openDurable(t, dir, PersistOptions{})
		if _, err := p.Import("stimuli", []byte("pulse 0 5 1ns")); err != nil {
			t.Fatal(err)
		}
		for _, h := range []time.Duration{8, 4} {
			if _, err := p.Plan([]string{"performance"}, Fixed{Default: h * time.Hour}, PlanOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		session, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		now := p.Now()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}

		log, err := persist.Open(dir, persist.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Replay(nil); err != nil {
			t.Fatal(err)
		}
		rec := &persist.Record{Now: now, Kind: recPlan, Body: []byte(fmt.Sprint(named))}
		if _, err := log.AppendBatch([]*persist.Record{rec}); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, "", Options{}, PersistOptions{NoSync: true})
		legacy := bytes.Replace(session, []byte(`,"events":`), []byte(fmt.Sprintf(`,"planVersion":%d,"events":`, named)), 1)
		if bytes.Equal(legacy, session) {
			t.Fatal(`session has no "events" member to name the plan before`)
		}
		loaded, lerr := Load(legacy, Options{})
		if named == 2 {
			if err != nil || lerr != nil {
				t.Fatalf("naming the newest plan: Open: %v, Load: %v", err, lerr)
			}
			if re.CurrentPlan().Version != 2 || loaded.CurrentPlan().Version != 2 {
				t.Fatalf("tracked plans %d and %d, want 2", re.CurrentPlan().Version, loaded.CurrentPlan().Version)
			}
			re.Close()
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "replay diverged") {
			t.Fatalf("log naming plan 1 of 2: Open err = %v", err)
		}
		if lerr == nil || !strings.Contains(lerr.Error(), "replay diverged") {
			t.Fatalf("session naming plan 1 of 2: Load err = %v", lerr)
		}
	}
}
