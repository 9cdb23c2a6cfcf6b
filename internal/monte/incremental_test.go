package monte

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// edited returns branchy() with one activity's duration parameters
// scaled — the "designer re-estimates one subtree" edit the memo is
// built for.
func edited(target string, scale float64) []ActivityModel {
	acts := branchy()
	for i := range acts {
		if acts[i].Name == target {
			acts[i].Mode = time.Duration(float64(acts[i].Mode) * scale)
			acts[i].Max = time.Duration(float64(acts[i].Max) * scale)
		}
	}
	return acts
}

// sameResult fails the test unless two results are bit-identical in
// every deterministic field.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Durations) != len(want.Durations) {
		t.Fatalf("%s: %d durations, want %d", label, len(got.Durations), len(want.Durations))
	}
	for i := range want.Durations {
		if got.Durations[i] != want.Durations[i] {
			t.Fatalf("%s: Durations[%d] = %v, want %v", label, i, got.Durations[i], want.Durations[i])
		}
	}
	for name, w := range want.Criticality {
		if got.Criticality[name] != w {
			t.Fatalf("%s: Criticality[%s] = %v, want %v", label, name, got.Criticality[name], w)
		}
	}
	for name, w := range want.MeanIterObserved {
		if got.MeanIterObserved[name] != w {
			t.Fatalf("%s: MeanIterObserved[%s] = %v, want %v", label, name, got.MeanIterObserved[name], w)
		}
	}
}

// TestIncrementalBitIdentical is the memo's core contract: after a
// single-subtree edit, a warm re-simulation (baseline streams cached)
// must be bit-identical to a cold full run of the edited model — for
// every worker count.
func TestIncrementalBitIdentical(t *testing.T) {
	const trials = 600
	for _, workers := range []int{1, 2, 8} {
		memo := NewMemo(0)
		base := Config{Trials: trials, Seed: 77, Workers: workers, Memo: memo}
		if _, err := Simulate(branchy(), base); err != nil {
			t.Fatal(err)
		}
		acts := edited("tb", 1.5)
		warm, err := Simulate(acts, base)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Simulate(acts, Config{Trials: trials, Seed: 77, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "warm vs cold", warm, cold)
		// Editing tb dirties tb plus its successors sim and signoff;
		// spec, rtl, and syn must come from the cache.
		if warm.ReusedActivityTrials != 3*trials {
			t.Fatalf("workers=%d: reused %d activity-trials, want %d",
				workers, warm.ReusedActivityTrials, 3*trials)
		}
		if warm.SampledActivityTrials != 3*trials {
			t.Fatalf("workers=%d: sampled %d activity-trials, want %d",
				workers, warm.SampledActivityTrials, 3*trials)
		}
	}
}

// TestIncrementalBitIdenticalProperty fuzzes the contract over edit
// targets, scales, and seeds.
func TestIncrementalBitIdenticalProperty(t *testing.T) {
	names := []string{"spec", "rtl", "tb", "syn", "sim", "signoff"}
	f := func(seed int64, who uint8, scaleRaw uint8) bool {
		target := names[int(who)%len(names)]
		scale := 1 + float64(scaleRaw)/128 // [1, 3)
		memo := NewMemo(0)
		cfg := Config{Trials: 120, Seed: seed, Memo: memo}
		if _, err := Simulate(branchy(), cfg); err != nil {
			return false
		}
		acts := edited(target, scale)
		warm, err := Simulate(acts, cfg)
		if err != nil {
			return false
		}
		cold, err := Simulate(acts, Config{Trials: 120, Seed: seed})
		if err != nil {
			return false
		}
		if len(warm.Durations) != len(cold.Durations) {
			return false
		}
		for i := range cold.Durations {
			if warm.Durations[i] != cold.Durations[i] {
				return false
			}
		}
		for name, w := range cold.Criticality {
			if warm.Criticality[name] != w {
				return false
			}
		}
		for name, w := range cold.MeanIterObserved {
			if warm.MeanIterObserved[name] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoFullHitResamplesNothing pins the ideal warm case: an
// unchanged model re-simulated with the same seed and trial count
// reuses every stream.
func TestMemoFullHitResamplesNothing(t *testing.T) {
	memo := NewMemo(0)
	cfg := Config{Trials: 300, Seed: 5, Memo: memo}
	cold, err := Simulate(branchy(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Simulate(branchy(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "full hit", warm, cold)
	if warm.SampledActivityTrials != 0 {
		t.Fatalf("sampled %d activity-trials on a full hit", warm.SampledActivityTrials)
	}
	if warm.ReusedActivityTrials != int64(6*300) {
		t.Fatalf("reused %d activity-trials, want %d", warm.ReusedActivityTrials, 6*300)
	}
}

// TestMemoSeedAndTrialsPartition pins that neither a different seed nor
// a different trial count can hit another configuration's streams.
func TestMemoSeedAndTrialsPartition(t *testing.T) {
	memo := NewMemo(0)
	if _, err := Simulate(branchy(), Config{Trials: 200, Seed: 1, Memo: memo}); err != nil {
		t.Fatal(err)
	}
	otherSeed, err := Simulate(branchy(), Config{Trials: 200, Seed: 2, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if otherSeed.ReusedActivityTrials != 0 {
		t.Fatal("seed 2 reused seed 1 streams")
	}
	otherTrials, err := Simulate(branchy(), Config{Trials: 300, Seed: 1, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if otherTrials.ReusedActivityTrials != 0 {
		t.Fatal("trials=300 reused trials=200 streams")
	}
}

// TestMemoSharedSubtreeAcrossModels: the memo keys on subtree content,
// not on the enclosing model, so two different networks sharing a
// predecessor closure share its streams.
func TestMemoSharedSubtreeAcrossModels(t *testing.T) {
	shared := []ActivityModel{
		{Name: "spec", Min: h(2), Mode: h(4), Max: h(8), MeanIterations: 1.3},
		{Name: "rtl", Min: h(6), Mode: h(10), Max: h(20), MeanIterations: 2, Preds: []string{"spec"}},
	}
	extended := append(append([]ActivityModel(nil), shared...),
		ActivityModel{Name: "gate", Min: h(1), Mode: h(2), Max: h(3), MeanIterations: 1, Preds: []string{"rtl"}})
	memo := NewMemo(0)
	if _, err := Simulate(shared, Config{Trials: 250, Seed: 4, Memo: memo}); err != nil {
		t.Fatal(err)
	}
	warm, err := Simulate(extended, Config{Trials: 250, Seed: 4, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ReusedActivityTrials != 2*250 {
		t.Fatalf("reused %d activity-trials across models, want %d", warm.ReusedActivityTrials, 2*250)
	}
	cold, err := Simulate(extended, Config{Trials: 250, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "cross-model warm vs cold", warm, cold)
}

// TestMemoBudgetDegradesGracefully: streams too large for the budget
// are never cached, and the run's results are unaffected.
func TestMemoBudgetDegradesGracefully(t *testing.T) {
	tiny := NewMemo(64) // smaller than any 200-trial stream
	cfg := Config{Trials: 200, Seed: 8, Memo: tiny}
	got, err := Simulate(branchy(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Simulate(branchy(), Config{Trials: 200, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "over-budget", got, cold)
	st := tiny.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("over-budget memo retained %d entries / %d bytes", st.Entries, st.Bytes)
	}
	if st.Rejects == 0 {
		t.Fatal("expected a budget reject")
	}
}

// TestMemoAdmitsWholeRunsOnly: a memo with room for one fresh stream
// but not for all of a run's fresh streams allocates no sample arrays —
// the run costs what a memo-less run costs, caches nothing, and returns
// the memo-less result.
func TestMemoAdmitsWholeRunsOnly(t *testing.T) {
	const trials = 200_000
	memo := NewMemo(2 * entrySize(trials)) // branchy() has 6 activities
	cfg := Config{Trials: trials, Seed: 3, Workers: 1}
	alloc := func(cfg Config) (*Result, uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Simulate(branchy(), cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	cold, coldBytes := alloc(cfg)
	cfg.Memo = memo
	got, memoBytes := alloc(cfg)
	sameResult(t, "over-budget run", got, cold)
	// One stream is trials*8 bytes; the six fresh arrays would be six.
	if bound := coldBytes + trials*8/2; memoBytes > bound {
		t.Fatalf("memo run allocated %d bytes, memo-less %d; want <= %d", memoBytes, coldBytes, bound)
	}
	if st := memo.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Rejects != 1 {
		t.Fatalf("memo after an over-budget run: %+v, want empty with 1 reject", st)
	}
}

// TestMemoLRUEviction: inserts beyond the budget evict the least
// recently used streams first.
func TestMemoLRUEviction(t *testing.T) {
	one := entrySize(100)
	memo := NewMemo(3 * one)
	mk := func(fp uint64) memoKey { return memoKey{fp: fp, seed: 1, trials: 100} }
	buf := make([]time.Duration, 100)
	memo.insert(mk(1), buf, 0)
	memo.insert(mk(2), buf, 0)
	memo.insert(mk(3), buf, 0)
	if _, _, ok := memo.lookup(mk(1)); !ok { // touch 1 → 2 is now LRU
		t.Fatal("entry 1 missing")
	}
	memo.insert(mk(4), buf, 0)
	if _, _, ok := memo.lookup(mk(2)); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	for _, fp := range []uint64{1, 3, 4} {
		if _, _, ok := memo.lookup(mk(fp)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", fp)
		}
	}
	st := memo.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes != 3*one {
		t.Fatalf("bytes = %d, want %d", st.Bytes, 3*one)
	}
}

// TestSubtreeFingerprints pins the Merkle propagation rules the memo's
// soundness rests on.
func TestSubtreeFingerprints(t *testing.T) {
	fpsOf := func(acts []ActivityModel) map[string]uint64 {
		idx := make(map[string]int)
		for i, a := range acts {
			idx[a.Name] = i
		}
		order, err := topo(acts, idx)
		if err != nil {
			t.Fatal(err)
		}
		fps := subtreeFingerprints(acts, idx, order)
		out := make(map[string]uint64)
		for i, a := range acts {
			out[a.Name] = fps[i]
		}
		return out
	}
	base := fpsOf(branchy())
	again := fpsOf(branchy())
	for name, fp := range base {
		if again[name] != fp {
			t.Fatalf("fingerprint of %s not deterministic", name)
		}
	}
	// Editing rtl must change rtl and every successor (syn, sim,
	// signoff) while leaving spec and tb alone.
	ed := fpsOf(edited("rtl", 2))
	for _, name := range []string{"rtl", "syn", "sim", "signoff"} {
		if ed[name] == base[name] {
			t.Errorf("edit of rtl did not propagate to %s", name)
		}
	}
	for _, name := range []string{"spec", "tb"} {
		if ed[name] != base[name] {
			t.Errorf("edit of rtl spuriously changed %s", name)
		}
	}
}

// TestModelsFingerprint pins the whole-network fingerprint used by the
// serve layer's cache tier.
func TestModelsFingerprint(t *testing.T) {
	a, err := ModelsFingerprint(branchy())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ModelsFingerprint(branchy())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("ModelsFingerprint not deterministic")
	}
	c, err := ModelsFingerprint(edited("sim", 1.1))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("edit did not change ModelsFingerprint")
	}
	if _, err := ModelsFingerprint(nil); err == nil {
		t.Fatal("empty model set accepted")
	}
	bad := branchy()
	bad[0].Min = 0
	if _, err := ModelsFingerprint(bad); err == nil {
		t.Fatal("invalid model accepted")
	}
}

// BenchmarkColdSimulate and BenchmarkWarmAfterEdit compare a cold
// simulation of an edited model with a warm one whose memo was primed
// with the baseline, in exact and sketch mode. The warm run reports the
// activity-trials it sampled and the ones the memo served.
func BenchmarkColdSimulate(b *testing.B)         { benchCold(b, false) }
func BenchmarkColdSimulate_Sketch(b *testing.B)  { benchCold(b, true) }
func BenchmarkWarmAfterEdit(b *testing.B)        { benchWarm(b, false) }
func BenchmarkWarmAfterEdit_Sketch(b *testing.B) { benchWarm(b, true) }

func benchCold(b *testing.B, sketch bool) {
	acts := edited("tb", 1.3)
	cfg := Config{Trials: 20000, Seed: 7, Sketch: sketch}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(acts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWarm(b *testing.B, sketch bool) {
	cfg := Config{Trials: 20000, Seed: 7, Sketch: sketch}
	acts := edited("tb", 1.3)
	var res *Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		memo := NewMemo(0)
		primed := cfg
		primed.Memo = memo
		if _, err := Simulate(branchy(), primed); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		var err error
		if res, err = Simulate(acts, primed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SampledActivityTrials), "sampled-trials/op")
	b.ReportMetric(float64(res.ReusedActivityTrials), "reused-trials/op")
}
