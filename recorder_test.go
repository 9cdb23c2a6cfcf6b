package flowsched

import (
	"bytes"
	"errors"
	"testing"

	"flowsched/internal/design"
	"flowsched/internal/engine"
	"flowsched/internal/persist"
	"flowsched/internal/store"
)

// captureHooks reinstalls p's change-feed hooks so that every record
// also reaches fn before the recorder buffers it. Restore the plain
// hooks with captureHooks(p, nil).
func captureHooks(p *Project, fn func(walRecord)) {
	rec := p.rec
	if fn == nil {
		p.mgr.DB.SetCommitHook(rec.addMut)
		p.mgr.Data.SetPutHook(rec.addObject)
		p.mgr.SetEventHook(rec.addEvent)
		return
	}
	p.mgr.DB.SetCommitHook(func(m store.Mutation) {
		fn(walRecord{mut: &m})
		rec.addMut(m)
	})
	p.mgr.Data.SetPutHook(func(o *design.Object) {
		fn(walRecord{data: &dataPut{Class: o.Ref.Class, Producer: o.Producer, Created: o.Created, Bytes: o.Bytes}})
		rec.addObject(o)
	})
	p.mgr.SetEventHook(func(e engine.Event) {
		fn(walRecord{event: &e})
		rec.addEvent(e)
	})
}

// TestRecorderBatchesMatchFreshEncoding drives the recorder's reused
// buffers through an RTL import whose batch is over
// persist.MaxReusedBuffer (its buffers are dropped), then designer
// iterations (kept and reused), then a flush the disk fails, which
// wedges the project. Every logged record's kind and body must be
// byte-identical to appendRecord on a fresh buffer, and the wedged
// batch must not be logged. (The persist package checks the frames
// around the bodies the same way.)
func TestRecorderBatchesMatchFreshEncoding(t *testing.T) {
	type result struct {
		want    []persist.Record // fresh encodings of the records logged after Open
		base    uint64           // records Open logged
		acked   uint64           // records logged before the last operation
		lastOp  int64            // fs's operations before the last operation
		bodyCap []int            // cap of the kept body buffer after each operation
		err     error            // the last operation's error
	}
	run := func(dir string, fs *persist.FaultFS) result {
		var res result
		p, err := Open(dir, ASICSchema, Options{Designer: "bench"},
			PersistOptions{NoSync: true, CheckpointEvery: -1, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.UseSimulatedTools(); err != nil {
			t.Fatal(err)
		}
		res.base = p.WALSeq()
		captureHooks(p, func(w walRecord) {
			kind, body, err := appendRecord(nil, w)
			if err != nil {
				t.Fatal(err)
			}
			res.want = append(res.want, persist.Record{Kind: kind, Body: body})
		})
		text := randomText(5)
		ops := []func() error{
			func() error { _, err := p.Import("rtl", text(persist.MaxReusedBuffer+4096)); return err },
			func() error { _, err := p.Import("constraints", text(512)); return err },
			func() error { _, err := p.Import("testbench", text(512)); return err },
		}
		for i := 0; i < 2; i++ {
			ops = append(ops, func() error { designerIteration(t, p, text(2048)); return nil })
		}
		ops = append(ops, func() error { _, err := p.Import("rtl", text(1024)); return err })
		for _, op := range ops {
			res.acked, res.lastOp = p.WALSeq(), fs.Ops()
			if res.err = op(); res.err != nil {
				return res
			}
			res.bodyCap = append(res.bodyCap, cap(p.rec.body))
		}
		return res
	}

	count := persist.NewFaultFS(persist.OSFS{}, 1)
	clean := run(t.TempDir(), count)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	if clean.bodyCap[0] != 0 {
		t.Fatalf("body buffer of %d bytes kept after a batch over persist.MaxReusedBuffer", clean.bodyCap[0])
	}
	for i, c := range clean.bodyCap[1:] {
		if c == 0 || c > persist.MaxReusedBuffer {
			t.Fatalf("operation %d: kept body buffer cap %d, want 1..%d", i+1, c, persist.MaxReusedBuffer)
		}
	}

	// The same operations with the last one's frame write failing (with
	// NoSync its batch is its first disk operation, one write).
	dir := t.TempDir()
	ffs := persist.NewFaultFS(persist.OSFS{}, 1)
	ffs.FailAt(clean.lastOp)
	res := run(dir, ffs)
	if !errors.Is(res.err, ErrQuarantined) {
		t.Fatalf("last operation = %v, want a quarantine", res.err)
	}
	l, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var got []persist.Record
	if _, err := l.Replay(func(r *persist.Record) error {
		if r.Seq > res.base {
			got = append(got, *r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := int(res.acked - res.base); len(got) != want {
		t.Fatalf("replayed %d records after Open's, want the %d acknowledged before the fault", len(got), want)
	}
	for i, r := range got {
		w := res.want[i]
		if r.Kind != w.Kind || !bytes.Equal(r.Body, w.Body) {
			t.Fatalf("record %d: kind %d body %.80q, want kind %d body %.80q", r.Seq, r.Kind, r.Body, w.Kind, w.Body)
		}
	}
}

// TestWarmBatchAppendAllocatesNothing bounds the durable write path's
// own allocations: once its buffers are warm, buffering a designer
// iteration's records and flushing them as one batch — encoding the
// bodies, AppendBatch framing and writing them — allocates nothing.
func TestWarmBatchAppendAllocatesNothing(t *testing.T) {
	p := durableDesigner(t, 2)
	var muts []store.Mutation
	var events []engine.Event
	var objs []*design.Object
	p.mgr.DB.SetCommitHook(func(m store.Mutation) { muts = append(muts, m) })
	p.mgr.Data.SetPutHook(func(o *design.Object) { objs = append(objs, o) })
	p.mgr.SetEventHook(func(e engine.Event) { events = append(events, e) })
	designerIteration(t, p, randomText(3)(2048))
	captureHooks(p, nil)
	if len(muts) == 0 || len(events) == 0 || len(objs) == 0 {
		t.Fatalf("iteration fed %d mutations, %d events, %d objects; want some of each", len(muts), len(events), len(objs))
	}
	rec := p.rec
	batch := func() {
		for _, m := range muts {
			rec.addMut(m)
		}
		for _, e := range events {
			rec.addEvent(e)
		}
		for _, o := range objs {
			rec.addObject(o)
		}
		if err := rec.flush(); err != nil {
			t.Fatal(err)
		}
	}
	batch() // warm the buffers
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Fatalf("warm batch append of %d records: %.1f allocs, want 0",
			len(muts)+len(events)+len(objs), allocs)
	}
}
