package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// sample is one timed operation as the client saw it.
type sample struct {
	kind, route string
	lat         time.Duration
	ok          bool
	cache       string
}

// checker holds the correctness checks that span operations: equal
// /risk and /whatif inputs must get byte-identical bodies whichever
// tier answers. It keeps a SHA-256 of the first body per input.
type checker struct {
	mu   sync.Mutex
	sums map[string]string
	errs []string
}

func newChecker() *checker {
	return &checker{sums: map[string]string{}}
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(format, args...)
}

func (c *checker) failLocked(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// body compares a response body with the first one seen for key.
func (c *checker) body(key, cache string, b []byte) {
	sum := sha256.Sum256(b)
	c.sum(key, cache, hex.EncodeToString(sum[:]))
}

func (c *checker) sum(key, cache, sum string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	first, ok := c.sums[key]
	if !ok {
		c.sums[key] = sum
		return
	}
	if first != sum {
		c.failLocked("%s: body differs from the first response (cache %s)", key, cache)
	}
}

// merge adds a client process's report: its errors, and its first body
// per input compared with the bodies seen in set-up.
func (c *checker) merge(rep clientReport) {
	for _, m := range rep.Errs {
		c.fail("client: %s", m)
	}
	for key, sum := range rep.Sums {
		c.sum(key, "client process", sum)
	}
}

// roundResult is everything one round measured.
type roundResult struct {
	traced     bool
	setup      time.Duration
	wall, cpu  time.Duration // timed phase; cpu is the server process's
	clientCPU  time.Duration // the client process's (untraced rounds)
	speed      speed         // from the calibrations of set-up and the timed phase
	setupIndex float64       // from the calibrations on either side of set-up
	restartIdx float64       // from the calibrations on either side of the restarts
	samples    []sample
	restart    []time.Duration
	restartCPU []time.Duration
	restartOps int
	restartBad int
	liveHeapMB float64
	fs         fsCounts
	walRecords uint64
	ctr        counters
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	steal      float64
	stealKnown bool
	sse        *sseResult
	layer      map[string][]float64 // traced rounds: per-layer samples
	spans      []span
	errs       []string
}

// okOps counts the timed operations that succeeded, by kind ("" = all).
func (r *roundResult) okOps(kind string) int {
	n := 0
	for _, s := range r.samples {
		if s.ok && (kind == "" || s.kind == kind) {
			n++
		}
	}
	return n
}

// runRound builds the workload's starting state, runs its fixed timed
// phase and restart measurement, checks the outputs and tears down.
// The host-speed calibration runs at the round's start, in the client
// process on either side of every segment of the timed phase (traced
// rounds: on either side of the timed phase), and after the restarts;
// its time is not counted in set-up or in the timed phase's wall time.
func runRound(w *workload, seed int64, dir string, traced bool) (_ *roundResult, err error) {
	// The heap the benchmark itself carries (earlier rounds' samples) is
	// subtracted from the live heap the round reports.
	var mem runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&mem)
	heapBase := mem.HeapAlloc

	cp, err := startClient(w, seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := cp.stop(); cerr != nil && err == nil {
			err = fmt.Errorf("client process: %w", cerr)
		}
	}()
	var cals []calibration
	calibrate := func() error {
		c, err := cp.calibrate()
		cals = append(cals, c)
		return err
	}
	if err := calibrate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	pl := w.gen(newRand(seed))
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res := &roundResult{traced: traced}
	chk := newChecker()
	e, err := newEnv(dir, pl.hist, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			err = fmt.Errorf("tear-down: %w", cerr)
		}
	}()
	for _, o := range pl.warm {
		r, err := e.do(o.method, e.base+o.path, o.body, 0)
		if err != nil || r.status != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s: status %d: %v", o.path, r.status, err)
		}
		chk.check(w, o, r)
	}
	var sub *sseSub
	eventsBefore := e.live().EventCount()
	if w.sse {
		if sub, err = startSSE(e, eventsBefore); err != nil {
			return nil, err
		}
		defer sub.stop()
	}

	before, err := e.scrape()
	if err != nil {
		return nil, err
	}
	res.setup = time.Since(t0)
	if traced {
		if err := calibrate(); err != nil {
			return nil, err
		}
	}
	fsBefore, walBefore := e.fs.counts(), e.live().WALSeq()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	statBefore, statOK := readCPUStat()
	cpuBefore := cpuTime()
	start := time.Now()
	var calWall time.Duration // calibrations between segments of the timed phase

	if !traced {
		rep, err := cp.run(e.base)
		if err != nil {
			return nil, err
		}
		res.clientCPU = rep.CPU
		cals = append(cals, rep.Cals...)
		calWall = rep.CalWall
		chk.merge(rep)
		for _, s := range rep.Samples {
			res.samples = append(res.samples, sample{kind: s.Kind, route: s.Route, lat: s.Lat, ok: s.OK, cache: s.Cache})
		}
	} else {
		var wg sync.WaitGroup
		per := make([][]sample, len(pl.clients))
		for i, seq := range pl.clients {
			wg.Add(1)
			go func(i int, seq []op) {
				defer wg.Done()
				per[i], _ = e.runClient(w, seq, chk, 0)
			}(i, seq)
		}
		wg.Wait()
		for _, s := range per {
			res.samples = append(res.samples, s...)
		}
	}

	res.wall = time.Since(start) - calWall
	res.cpu = cpuTime() - cpuBefore
	statAfter, statOK2 := readCPUStat()
	res.steal, res.stealKnown = stealPct(statBefore, statAfter), statOK && statOK2
	runtime.ReadMemStats(&msAfter)
	res.mallocs = msAfter.Mallocs - msBefore.Mallocs
	res.allocBytes = msAfter.TotalAlloc - msBefore.TotalAlloc
	res.gcCycles = msAfter.NumGC - msBefore.NumGC
	res.fs = e.fs.counts().sub(fsBefore)
	res.walRecords = e.live().WALSeq() - walBefore
	if traced {
		if err := calibrate(); err != nil {
			return nil, err
		}
	}
	res.speed = speedOf(cals)
	res.setupIndex = math.Sqrt(speedOf(cals[:1]).Index * speedOf(cals[1:2]).Index)
	// The second collection empties what sync.Pools kept through the
	// first, so the figure is the heap the program itself holds.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&msAfter)
	res.liveHeapMB = (float64(msAfter.HeapAlloc) - float64(heapBase)) / (1 << 20)
	after, err := e.scrape()
	if err != nil {
		return nil, err
	}
	res.ctr = readCounters(after).sub(readCounters(before))
	if res.ctr.conflicts != 0 {
		chk.fail("serve_write_conflicts_total grew by %.0f", res.ctr.conflicts)
	}
	if sub != nil {
		res.sse = sub.finish(e.live().EventCount(), eventsBefore)
		for _, m := range res.sse.errs {
			chk.fail("sse: %s", m)
		}
	}
	if err := e.measureRestart(w, res, chk); err != nil {
		return nil, err
	}
	if err := calibrate(); err != nil {
		return nil, err
	}
	n := len(cals)
	res.restartIdx = math.Sqrt(speedOf(cals[n-2:n-1]).Index * speedOf(cals[n-1:]).Index)
	if traced {
		res.spans = tr.snapshot()
		e.layerFromSpans(res)
		if res.sse != nil {
			e.sseLag(res.sse)
		}
		res.layer = e.layer
	}
	res.errs = chk.errs
	return res, nil
}

// check applies the per-response checks to one successful response.
func (c *checker) check(w *workload, o op, r response) {
	if o.kind != "risk" && o.kind != "whatif" {
		return
	}
	key := o.path
	if w.stateful && o.kind == "whatif" {
		key = fmt.Sprintf("%s@%d", o.path, r.version)
	}
	c.body(key, r.cache, r.body)
}

// runClient is one closed-loop client: each request is sent when the
// previous response has been read. last is the store version of the
// client's previous response (for If-Match); it returns its samples and
// the version of its last response.
func (e *env) runClient(w *workload, seq []op, chk *checker, last uint64) ([]sample, uint64) {
	out := make([]sample, 0, len(seq))
	for _, o := range seq {
		var ifMatch uint64
		if o.ifMatch {
			ifMatch = last
		}
		var id uint64
		var spanStart int64
		if e.tr != nil {
			id = e.tr.newID()
			if o.kind == "write" {
				e.wmu.Lock()
				e.fs.setParent(id)
			}
			spanStart = e.tr.now()
		}
		t := time.Now()
		r, err := e.do(o.method, e.base+o.path, o.body, ifMatch)
		lat := time.Since(t)
		ok := err == nil && r.status == http.StatusOK
		if ok {
			last = r.version
			chk.check(w, o, r)
		} else if err != nil {
			chk.fail("%s %s: %v", o.method, o.path, err)
		}
		out = append(out, sample{kind: o.kind, route: o.route, lat: lat, ok: ok, cache: r.cache})
		if e.tr != nil {
			e.tr.record(span{ID: id, Op: id, Name: "http." + o.route, Start: spanStart, End: e.tr.now(), Cache: r.cache})
			if ok {
				if err := e.replicate(o, id, lat, r, t); err != nil {
					chk.fail("traced %s %s: %v", o.method, o.path, err)
				}
			}
			if o.kind == "write" {
				e.fs.setParent(0)
				e.wmu.Unlock()
			}
		}
	}
	return out, last
}

// sseLag attributes each delivered event to the traced write that
// appended it and records the time from that write's send to the
// event's arrival at the follower.
func (e *env) sseLag(s *sseResult) {
	w := 0
	for i, at := range s.arrivals {
		pos := s.since + i + 1
		for w < len(e.writeMark) && e.writeMark[w].events < pos {
			w++
		}
		if w == len(e.writeMark) {
			return
		}
		e.addLayer("serve.sse_lag_ms", ms(at.Sub(e.writeMark[w].sent)))
	}
}
